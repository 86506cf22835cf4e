(** Trace streams (Section 2.1): the event sequence recorded on one machine
    over one tracing session, plus the scenario instances it contains.

    Events are sorted by timestamp and carry dense ids equal to their index,
    so an event id identifies an event within its stream; the pair
    [(stream id, event id)] identifies it within a corpus — the identity
    used by the distinct-wait deduplication of Section 3.2. *)

type index
(** Per-stream query index; see {!section-indexed} below. *)

type t = private {
  id : int;
  events : Event.t array;  (** Sorted by [ts]; [events.(i).id = i]. *)
  instances : Scenario.instance list;
  threads : (int * string) list;  (** tid → human-readable thread name. *)
  memo_index : index option Atomic.t;
      (** Memoised by {!shared_index}; never read directly. *)
  memo_key : string option Atomic.t;
      (** Memoised content identity (codec-v2 frame checksum); see
          {!key_memo}. *)
}

val create :
  id:int ->
  events:Event.t list ->
  instances:Scenario.instance list ->
  threads:(int * string) list ->
  t
(** Sorts the events by [(ts, tid)] and renumbers their ids to be the array
    indices; the ids supplied by the caller are ignored. Equal keys keep
    the order given (zero-cost events first at one instant on one
    thread). Input that is already in order — what decoders and the
    simulator produce — costs one linear check and no sort. *)

val of_array :
  id:int ->
  events:Event.t array ->
  instances:Scenario.instance list ->
  threads:(int * string) list ->
  t
(** {!create} over an array, which the stream takes over (it may be
    sorted and renumbered in place; the caller must not use it again).
    When the events are in order and their ids already equal their
    indices, nothing is copied. *)

val thread_name : t -> int -> string
(** Name of a thread, or ["tid<N>"] if unregistered. *)

val duration : t -> Dputil.Time.t
(** Span from the first event start to the last event end; 0 if empty. *)

val event_count : t -> int

(** {1:indexed Indexed queries}

    An [index] is built once per stream and shared by all per-instance
    analyses of that stream. *)

val index : t -> index
(** Build a fresh index. Pure; prefer {!shared_index} unless the fresh
    build is wanted (e.g. benchmarking the construction itself). *)

val shared_index : t -> index
(** The stream's memoised index: built on first use, then reused by every
    later call on the same stream value — across scenarios, analysis
    passes and domains (the memo is an [Atomic.t] published with a single
    compare-and-set, so concurrent first calls race benignly and all
    observe one index identity). Corpus-scope analyses that used to
    rebuild the index per call share one instead. *)

val key_memo : t -> string option
(** The stream's memoised content-identity key, if one was recorded —
    [Codec_v2] stores the frame checksum here during load so cache-keyed
    re-analysis ({!Snapshot} in dpcore) never re-encodes a stream it just
    decoded. *)

val set_key_memo : t -> string -> unit
(** Record the content-identity key. First writer wins (the key is a pure
    function of the stream content, so racing writers agree). *)

val events_of_thread : index -> int -> Event.t array
(** All events of a thread, timestamp-ordered ([| |] for unknown tids). *)

val thread_events_overlapping :
  index -> tid:int -> from_ts:Dputil.Time.t -> to_ts:Dputil.Time.t -> Event.t list
(** Events of [tid] whose span [\[ts, ts+cost\]] intersects
    [\[from_ts, to_ts\]], in timestamp order. Zero-cost events (unwaits)
    count as intersecting when their instant lies within the window. *)

val fold_thread_window :
  index ->
  tid:int ->
  from_ts:Dputil.Time.t ->
  to_ts:Dputil.Time.t ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  'a
(** Fold over exactly the events {!thread_events_overlapping} returns, in
    the same order, straight off the index arrays (no list is built). *)

val find_waker : index -> Event.t -> Event.t option
(** [find_waker idx w] is the unwait event that ended wait [w]: the first
    unwait with [wtid = w.tid] and timestamp in [(w.ts, w.ts + w.cost\]]
    (closed at [w.ts] too when [w.cost = 0] — an unwait at exactly the
    start instant otherwise belongs to the wait that {e ended} there).
    [None] if the trace lost the pairing (truncated stream). *)

val pp_summary : Format.formatter -> t -> unit
