module Signature = Dptrace.Signature
module Event = Dptrace.Event
module Callstack = Dptrace.Callstack

(* Per-signature verdicts, memoised by interned id: one byte per id,
   [unknown] until the first lookup computes the glob match. The table is
   shared by every domain that analyses with this component set. Races
   are benign by construction: a verdict is a pure function of the id, so
   concurrent writers store the same byte; a reader that sees [unknown]
   (or a table that another domain has since replaced on growth)
   recomputes and stores again. Growth copies into a larger table and
   publishes it with one compare-and-set; a verdict written into the old
   table after the copy is merely lost, never wrong. *)
let unknown = '\000'
let no = '\001'
let yes = '\002'

type t = {
  sources : string list;
  compiled : Dputil.Wildcard.t list;
  keep_hw : bool;
  verdicts : Bytes.t Atomic.t;
}

let make ~keep_hw sources =
  {
    sources;
    compiled = List.map Dputil.Wildcard.compile sources;
    keep_hw;
    verdicts = Atomic.make (Bytes.make 1024 unknown);
  }

let of_patterns sources = make ~keep_hw:false sources

let drivers = make ~keep_hw:true [ "*.sys" ]

let patterns t = t.sources

let compute t s id =
  let v = Signature.matches t.compiled s in
  let table = Atomic.get t.verdicts in
  let table =
    if id < Bytes.length table then table
    else begin
      let grown = Bytes.make (max (2 * Bytes.length table) (id + 1)) unknown in
      Bytes.blit table 0 grown 0 (Bytes.length table);
      ignore (Atomic.compare_and_set t.verdicts table grown);
      grown
    end
  in
  Bytes.unsafe_set table id (if v then yes else no);
  v

let matches_signature t s =
  let id = Signature.to_int s in
  let table = Atomic.get t.verdicts in
  if id < Bytes.length table then begin
    let v = Bytes.unsafe_get table id in
    if Char.equal v yes then true
    else if Char.equal v no then false
    else compute t s id
  end
  else compute t s id

let stack_relevant t stack =
  let frames = Callstack.frames stack in
  let n = Array.length frames in
  let rec go i = i < n && (matches_signature t frames.(i) || go (i + 1)) in
  go 0

let topmost_matching t stack =
  let frames = Callstack.frames stack in
  let n = Array.length frames in
  let rec go i =
    if i = n then None
    else if matches_signature t frames.(i) then Some frames.(i)
    else go (i + 1)
  in
  go 0

let event_signature t (e : Event.t) =
  match e.kind with
  | Event.Hw_service ->
    if t.keep_hw then Callstack.top e.stack else topmost_matching t e.stack
  | Event.Running | Event.Wait | Event.Unwait -> topmost_matching t e.stack

let event_relevant t e = event_signature t e <> None

let event_signature_or_top t (e : Event.t) =
  match event_signature t e with
  | Some s -> s
  | None -> (
    match Callstack.top e.stack with
    | Some s -> s
    (* Interned here, on first use, rather than at module initialisation:
       signature ids order AWG statuses, so an eager intern would shift
       every id after it. *)
    | None -> Signature.of_string "<none>")
