type index = {
  by_tid : (int, Event.t array) Hashtbl.t;
  unwaits_by_wtid : (int, Event.t array) Hashtbl.t;
}

type t = {
  id : int;
  events : Event.t array;
  instances : Scenario.instance list;
  threads : (int * string) list;
  memo_index : index option Atomic.t;
  memo_key : string option Atomic.t;
}

(* Order: timestamp, then thread, then zero-cost events (unwaits) before
   cost-bearing ones — a thread that releases a lock and computes at the
   same instant has released first — then emission order for
   determinism. *)
let compare_events (a : Event.t) (b : Event.t) =
  match Int.compare a.ts b.ts with
  | 0 -> (
    match Int.compare a.tid b.tid with
    | 0 -> Int.compare (Int.min a.cost 1) (Int.min b.cost 1)
    | c -> c)
  | c -> c

let in_order events =
  let n = Array.length events in
  let rec go i = i >= n || (compare_events events.(i - 1) events.(i) <= 0 && go (i + 1)) in
  go 1

let of_array ~id ~events ~instances ~threads =
  (* Decoders and simulators emit events already in order, so one linear
     check usually replaces the sort. The stable sort is the fallback: it
     keeps emission order among equal keys, which is the documented
     tie-break. *)
  if not (in_order events) then Array.stable_sort compare_events events;
  Array.iteri
    (fun i (e : Event.t) -> if e.id <> i then events.(i) <- { e with Event.id = i })
    events;
  {
    id;
    events;
    instances;
    threads;
    memo_index = Atomic.make None;
    memo_key = Atomic.make None;
  }

let create ~id ~events ~instances ~threads =
  of_array ~id ~events:(Array.of_list events) ~instances ~threads

let thread_name t tid =
  match List.assoc_opt tid t.threads with
  | Some name -> name
  | None -> Printf.sprintf "tid%d" tid

let duration t =
  let n = Array.length t.events in
  if n = 0 then 0
  else begin
    let last_end = Array.fold_left (fun acc e -> max acc (Event.end_ts e)) 0 t.events in
    last_end - t.events.(0).Event.ts
  end

let event_count t = Array.length t.events

(* Two passes. The first gives each kept event its key's dense slot
   (one hashtable lookup, skipped while the key repeats) and counts the
   slots; the second fills per-slot arrays allocated once at their final
   size, so each bucket stays timestamp-ordered. *)
let group_by ~keep ~key events =
  let n = Array.length events in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let slots = Array.make n (-1) in
  let counts = Array.make n 0 in
  let last_key = ref 0 and last_slot = ref (-1) in
  for i = 0 to n - 1 do
    let e = events.(i) in
    if keep e then begin
      let k = key e in
      let s =
        if !last_slot >= 0 && k = !last_key then !last_slot
        else
          match Hashtbl.find slot_of k with
          | s -> s
          | exception Not_found ->
            let s = Hashtbl.length slot_of in
            Hashtbl.add slot_of k s;
            s
      in
      last_key := k;
      last_slot := s;
      slots.(i) <- s;
      counts.(s) <- counts.(s) + 1
    end
  done;
  let items = Array.make (Hashtbl.length slot_of) [||] in
  let fill = Array.make (Hashtbl.length slot_of) 0 in
  for i = 0 to n - 1 do
    let s = slots.(i) in
    if s >= 0 then begin
      if fill.(s) = 0 then items.(s) <- Array.make counts.(s) events.(i);
      items.(s).(fill.(s)) <- events.(i);
      fill.(s) <- fill.(s) + 1
    end
  done;
  let out = Hashtbl.create (Hashtbl.length slot_of) in
  Hashtbl.iter (fun k s -> Hashtbl.replace out k items.(s)) slot_of;
  out

let index t =
  {
    by_tid = group_by ~keep:(fun _ -> true) ~key:(fun (e : Event.t) -> e.tid) t.events;
    unwaits_by_wtid =
      group_by ~keep:Event.is_unwait ~key:(fun (e : Event.t) -> e.wtid) t.events;
  }

(* Publication is a single compare-and-set on an [Atomic.t]: the plain
   mutable field it replaces was read outside the old mutex, which was a
   data race under the domain pool (torn in theory, and flagged by TSan).
   Index construction runs before the CAS: a race on the same stream at
   worst computes the (pure, identical) index twice; the first store wins
   and losers adopt it, so every caller observes one index identity.
   The hit/miss counters are resolved through the registry at the point
   of use (its get-or-create is mutex-guarded), never through a global
   [lazy]: forcing one lazy from two domains at once raises. A racing
   double build counts as two misses, which is exactly the wasted work. *)
let shared_index t =
  match Atomic.get t.memo_index with
  | Some idx ->
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Dpobs.Metrics.counter "stream.index.hit");
    idx
  | None ->
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Dpobs.Metrics.counter "stream.index.miss");
    let idx = index t in
    if Atomic.compare_and_set t.memo_index None (Some idx) then idx
    else
      (* Lost the race: the winner's index is now published. *)
      Option.get (Atomic.get t.memo_index)

let key_memo t = Atomic.get t.memo_key

let set_key_memo t key =
  (* First writer wins; all writers derive the key from the same stream
     content, so losing the race changes nothing. *)
  ignore (Atomic.compare_and_set t.memo_key None (Some key))

(* Lookups on the hot path avoid [find_opt]'s option and local
   closures: without flambda each would allocate on every call. *)
let find_events tbl key = try Hashtbl.find tbl key with Not_found -> [||]

let events_of_thread idx tid = find_events idx.by_tid tid

(* First index i in [lo, hi) with arr.(i).ts >= target. *)
let rec lower_bound_in (arr : Event.t array) target lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if arr.(mid).Event.ts < target then lower_bound_in arr target (mid + 1) hi
    else lower_bound_in arr target lo mid

let lower_bound arr target = lower_bound_in arr target 0 (Array.length arr)

let rec fold_from (arr : Event.t array) i to_ts f acc =
  if i >= Array.length arr || arr.(i).Event.ts > to_ts then acc
  else fold_from arr (i + 1) to_ts f (f acc arr.(i))

let fold_thread_window idx ~tid ~from_ts ~to_ts ~init ~f =
  let arr = events_of_thread idx tid in
  (* An event overlaps iff ts <= to_ts and end_ts >= from_ts. Events are
     ts-sorted; a long event may start well before [from_ts], so scan back
     from the first event starting at/after [from_ts] while spans still can
     reach the window. Per-thread events do not overlap each other, so at
     most one predecessor qualifies. *)
  let start = lower_bound arr from_ts in
  let acc =
    if start > 0 && Event.end_ts arr.(start - 1) >= from_ts then
      f init arr.(start - 1)
    else init
  in
  fold_from arr start to_ts f acc

let thread_events_overlapping idx ~tid ~from_ts ~to_ts =
  List.rev
    (fold_thread_window idx ~tid ~from_ts ~to_ts ~init:[] ~f:(fun acc e -> e :: acc))

let find_waker idx (w : Event.t) =
  let arr = find_events idx.unwaits_by_wtid w.tid in
  (* An unwait at exactly [w.ts] belongs to whatever wait ended there, not
     to a wait beginning there — threads commonly re-block at the very
     instant they are woken (FIFO hand-offs), and matching the stale
     unwait would truncate the propagation chain. Only zero-duration
     waits may pair at their own start instant. *)
  let earliest = if w.cost = 0 then w.ts else w.ts + 1 in
  let start = lower_bound arr earliest in
  if start < Array.length arr && arr.(start).Event.ts <= Event.end_ts w then
    Some arr.(start)
  else None

let pp_summary fmt t =
  Format.fprintf fmt "stream %d: %d events, %d instances, %d threads, span %a"
    t.id (Array.length t.events) (List.length t.instances)
    (List.length t.threads) Dputil.Time.pp (duration t)
