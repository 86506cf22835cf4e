(** Callstacks: sequences of signatures, {e topmost frame first}.

    The topmost frame is the innermost function at the moment the event was
    recorded; the last frame is the thread entry point (e.g.
    ["Browser!TabCreate"]). *)

type t

val of_list : Signature.t list -> t
(** Build from topmost-first frames. *)

val of_array : Signature.t array -> t
(** Build from topmost-first frames, taking over the array (no copy; the
    caller must not mutate it afterwards). *)

val of_strings : string list -> t
(** Convenience: intern each frame text, topmost first. *)

val frames : t -> Signature.t array
(** Topmost-first frames. Do not mutate. *)

val top : t -> Signature.t option
(** Topmost frame; [None] for an empty stack. *)

val depth : t -> int

val push : Signature.t -> t -> t
(** [push f s] adds [f] as the new topmost frame. *)

val topmost_matching : Dputil.Wildcard.t list -> t -> Signature.t option
(** The paper's "signature" of an event for chosen components: the topmost
    frame whose module part matches one of the component filters
    (Definition 2's preamble), or [None] when the event is
    component-irrelevant. *)

val contains_matching : Dputil.Wildcard.t list -> t -> bool
(** Whether any frame matches the component filters. *)

val contains : Signature.t -> t -> bool

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
