(* The benchmark's own tracing: spans around its calls into each layer,
   kept in memory and written out at the end as Chrome trace-event JSON,
   plus GC pause time read from the OCaml runtime's event ring.

   Nothing here reaches inside the program: a span covers one public
   call the benchmark makes, and a layer's self time is its span minus
   the spans of its children. With the recorder off, [span] is a plain
   call. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;  (** Spans of one op share this id. *)
  start_ns : int64;
  end_ns : int64;
  minor_words : float;  (** Minor-heap words allocated inside the span. *)
}

let dur_ms s = Proc.ms_between s.start_ns s.end_ns

type recorder = {
  on : bool;
  mutable op : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** Most recent first. *)
  mutable poll : unit -> unit;
}

let recorder ~on =
  { on; op = 0; next_id = 0; stack = []; spans = []; poll = ignore }

(* Span ids are unique across ops, so traces from several ops merge. *)
let start_op r op =
  r.op <- op;
  r.next_id <- op * 1_000_000

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let span r name f =
  if not r.on then f ()
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let w0 = minor_words () in
    let t0 = Proc.now_ns () in
    let finish () =
      let t1 = Proc.now_ns () in
      let w1 = minor_words () in
      r.stack <- List.tl r.stack;
      r.spans <-
        {
          name;
          id;
          parent;
          op = r.op;
          start_ns = t0;
          end_ns = t1;
          minor_words = w1 -. w0;
        }
        :: r.spans;
      r.poll ()
    in
    Fun.protect ~finally:finish f
  end

let spans r = List.rev r.spans

(* Inclusive time and minor words per span name, summed over [spans]. *)
let totals spans name =
  List.fold_left
    (fun (ms, w) s ->
      if s.name = name then (ms +. dur_ms s, w +. s.minor_words) else (ms, w))
    (0., 0.) spans

(* Share of each root span's time that no direct child covers. *)
let unattributed_pct spans =
  let roots = List.filter (fun s -> s.parent = -1) spans in
  let covered root =
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. dur_ms s else acc)
      0. spans
  in
  List.map
    (fun root ->
      let total = dur_ms root in
      if total <= 0. then 0. else 100. *. (total -. covered root) /. total)
    roots

(* --- GC pauses ---

   Time each domain spends in a minor collection, a major slice or a
   stop-the-world section, read from the runtime event ring. Nested
   phases are counted once: a domain is paused from the first phase that
   opens to the moment the last one closes. The ring is polled at every
   span end so that it never wraps between polls. *)

type pauses = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  paused_ns : int64 ref;
  lost : int ref;
}

let counted = function
  | Runtime_events.EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_STW_LEADER
  | EV_STW_HANDLER | EV_STW_API_BARRIER | EV_MAJOR_GC_STW ->
    true
  | _ -> false

(* The ring's file, which the runtime creates on start, and again in a
   child forked after start. Unlinking it leaves any mapping intact. *)
let unlink_ring () =
  let name = Printf.sprintf "%d.events" (Unix.getpid ()) in
  let file =
    match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" with
    | Some dir -> Filename.concat dir name
    | None -> name
  in
  try Sys.remove file with Sys_error _ -> ()

(* Start the ring for this process and unlink its file at once: the
   cursor keeps the mapping, and nothing is left behind in the checkout
   however the process ends. *)
let start_pauses () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  unlink_ring ();
  let paused_ns = ref 0L and lost = ref 0 in
  let depth = Hashtbl.create 4 and opened = Hashtbl.create 4 in
  let ts = Runtime_events.Timestamp.to_int64 in
  let runtime_begin dom t phase =
    if counted phase then begin
      let d = Option.value ~default:0 (Hashtbl.find_opt depth dom) in
      if d = 0 then Hashtbl.replace opened dom (ts t);
      Hashtbl.replace depth dom (d + 1)
    end
  in
  let runtime_end dom t phase =
    if counted phase then
      match Hashtbl.find_opt depth dom with
      | Some 1 ->
        Hashtbl.replace depth dom 0;
        paused_ns :=
          Int64.add !paused_ns (Int64.sub (ts t) (Hashtbl.find opened dom))
      | Some d when d > 1 -> Hashtbl.replace depth dom (d - 1)
      | _ -> ()
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  { cursor; callbacks; paused_ns; lost }

let poll_pauses p =
  ignore (Runtime_events.read_poll p.cursor p.callbacks None : int)

let paused_ms p = Int64.to_float !(p.paused_ns) /. 1e6

(* --- Chrome trace-event JSON --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One complete ("X") event per span on the op's own track; timestamps
   are microseconds from the earliest span. *)
let write_chrome_trace path spans =
  let origin =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"op\":%d,\"id\":%d,\"parent\":%d,\"minor_words\":%.0f}}"
        (json_string s.name) s.op (us s.start_ns)
        (us s.end_ns -. us s.start_ns)
        s.op s.id s.parent s.minor_words)
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"
