module Event = Dptrace.Event
module Stream = Dptrace.Stream

type node = {
  id : int;
  event : Event.t;
  waker : Event.t option;
  children : node list;
}

type t = {
  stream : Stream.t;
  instance : Dptrace.Scenario.instance;
  roots : node list;
  size : int;
}

let max_depth = 128

(* Per-domain build scratch, reused across builds so a build allocates
   nothing but the graph itself. Indexed by stream event id: [dense]
   holds the event's graph-local id, valid only where [stamp] equals the
   current build's [gen] (so nothing is cleared between builds). Indexed
   by graph-local id: the finished node in [memo] and the build state in
   [state]. A build never yields to other work on its domain, so one
   scratch per domain is never shared. *)
type scratch = {
  mutable gen : int;
  mutable stamp : int array;
  mutable dense : int array;
  mutable memo : node array;
  mutable state : Bytes.t;
}

let fresh = '\000'
let building = '\001'
let finished = '\002'

let placeholder =
  {
    id = -1;
    event =
      {
        Event.id = -1;
        kind = Event.Running;
        stack = Dptrace.Callstack.of_list [];
        ts = 0;
        cost = 0;
        tid = 0;
        wtid = -1;
      };
    waker = None;
    children = [];
  }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        gen = 0;
        stamp = [||];
        dense = [||];
        memo = Array.make 64 placeholder;
        state = Bytes.make 64 fresh;
      })

let scratch_for nevents =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.stamp < nevents then begin
    let cap = max nevents (2 * Array.length s.stamp) in
    s.stamp <- Array.make cap (-1);
    s.dense <- Array.make cap 0
  end;
  s.gen <- s.gen + 1;
  s

let grow_nodes s =
  let cap = Array.length s.memo in
  let memo = Array.make (2 * cap) placeholder in
  Array.blit s.memo 0 memo 0 cap;
  let state = Bytes.make (2 * cap) fresh in
  Bytes.blit s.state 0 state 0 cap;
  s.memo <- memo;
  s.state <- state

let build ?index stream (instance : Dptrace.Scenario.instance) =
  let idx = match index with Some i -> i | None -> Stream.index stream in
  let s = scratch_for (Array.length stream.Stream.events) in
  let size = ref 0 in
  (* One graph-local id per distinct event: cycle-cut and depth-cut stubs
     share their event's id with its full node, so visited sets indexed
     by id dedup exactly as sets keyed by event id would. *)
  let id_of (e : Event.t) =
    if s.stamp.(e.id) = s.gen then s.dense.(e.id)
    else begin
      let d = !size in
      incr size;
      if d = Array.length s.memo then grow_nodes s;
      Bytes.set s.state d fresh;
      s.stamp.(e.id) <- s.gen;
      s.dense.(e.id) <- d;
      d
    end
  in
  let rec node_of depth (e : Event.t) =
    let d = id_of e in
    let st = Bytes.get s.state d in
    if Char.equal st finished then s.memo.(d)
    else if Char.equal st building || depth > max_depth then
      (* Back edge or runaway chain: cut here with a childless view. *)
      { id = d; event = e; waker = None; children = [] }
    else begin
      Bytes.set s.state d building;
      let n =
        if Event.is_wait e then expand_wait depth d e
        else { id = d; event = e; waker = None; children = [] }
      in
      Bytes.set s.state d finished;
      s.memo.(d) <- n;
      n
    end
  and expand_wait depth d (w : Event.t) =
    match Stream.find_waker idx w with
    | None -> { id = d; event = w; waker = None; children = [] }
    | Some u ->
      let children =
        Stream.fold_thread_window idx ~tid:u.Event.tid ~from_ts:w.ts
          ~to_ts:u.Event.ts ~init:[] ~f:(fun acc (e : Event.t) ->
            if (not (Event.is_unwait e)) && e.ts < u.Event.ts then
              node_of (depth + 1) e :: acc
            else acc)
      in
      { id = d; event = w; waker = Some u; children = List.rev children }
  in
  let roots =
    Stream.fold_thread_window idx ~tid:instance.tid ~from_ts:instance.t0
      ~to_ts:instance.t1 ~init:[] ~f:(fun acc (e : Event.t) ->
        if Event.is_unwait e then acc else node_of 0 e :: acc)
  in
  (* Drop the scratch's references so it does not keep the graph alive. *)
  Array.fill s.memo 0 !size placeholder;
  { stream; instance; roots = List.rev roots; size = !size }

let iter_nodes t f =
  let seen = Bytes.make t.size '\000' in
  let rec go n =
    if Char.equal (Bytes.get seen n.id) '\000' then begin
      Bytes.set seen n.id '\001';
      f n;
      List.iter go n.children
    end
  in
  List.iter go t.roots

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes t (fun n -> acc := f !acc n);
  !acc

let node_count t = fold_nodes t ~init:0 ~f:(fun acc _ -> acc + 1)

let wait_time t =
  fold_nodes t ~init:0 ~f:(fun acc n ->
      if Event.is_wait n.event then acc + n.event.Event.cost else acc)

let running_time t =
  fold_nodes t ~init:0 ~f:(fun acc n ->
      if Event.is_running n.event then acc + n.event.Event.cost else acc)

let depth t =
  (* 0 = not yet measured; any measured depth is >= 1. *)
  let memo = Array.make t.size 0 in
  let rec go n =
    match memo.(n.id) with
    | 0 ->
      (* Seed with 1 so revisits along a cycle-cut path terminate. *)
      memo.(n.id) <- 1;
      let d =
        1 + List.fold_left (fun acc c -> max acc (go c)) 0 n.children
      in
      memo.(n.id) <- d;
      d
    | d -> d
  in
  List.fold_left (fun acc n -> max acc (go n)) 0 t.roots

let dot_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "digraph wait_graph {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let node_id (e : Event.t) = Printf.sprintf "e%d" e.Event.id in
  let edges = Buffer.create 1024 in
  iter_nodes t (fun n ->
      let e = n.event in
      let top =
        match Dptrace.Callstack.top e.Event.stack with
        | Some s -> Dptrace.Signature.name s
        | None -> "<empty>"
      in
      let unwaiter =
        match n.waker with
        | Some u when Event.is_wait e ->
          Printf.sprintf "\\nunwait by %s"
            (dot_escape (Stream.thread_name t.stream u.Event.tid))
        | _ -> ""
      in
      let shape, color =
        match e.Event.kind with
        | Event.Wait -> ("box", "lightblue")
        | Event.Running -> ("ellipse", "palegreen")
        | Event.Hw_service -> ("hexagon", "lightsalmon")
        | Event.Unwait -> ("diamond", "white")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s [label=\"%s\\n%s %s\\n%s%s\", shape=%s, style=filled, \
            fillcolor=%s];\n"
           (node_id e)
           (dot_escape (Stream.thread_name t.stream e.Event.tid))
           (Event.kind_to_string e.Event.kind)
           (Dputil.Time.to_string e.Event.cost)
           (dot_escape top) unwaiter shape color);
      List.iter
        (fun c ->
          Buffer.add_string edges
            (Printf.sprintf "  %s -> %s;\n" (node_id e) (node_id c.event)))
        n.children);
  Buffer.add_buffer buf edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp fmt t =
  let rec render indent n =
    let e = n.event in
    let top =
      match Dptrace.Callstack.top e.Event.stack with
      | Some s -> Dptrace.Signature.name s
      | None -> "<empty>"
    in
    Format.fprintf fmt "%s%s %s cost=%a [%s]@," indent
      (Event.kind_to_string e.Event.kind)
      (Stream.thread_name t.stream e.Event.tid)
      Dputil.Time.pp e.Event.cost top;
    (match n.waker with
    | Some u ->
      Format.fprintf fmt "%s  (unwaited by %s via %s)@," indent
        (Stream.thread_name t.stream u.Event.tid)
        (match Dptrace.Callstack.top u.Event.stack with
        | Some s -> Dptrace.Signature.name s
        | None -> "<empty>")
    | None -> ());
    List.iter (render (indent ^ "  ")) n.children
  in
  Format.fprintf fmt "@[<v>wait graph of %a@," Dptrace.Scenario.pp_instance
    t.instance;
  List.iter (render "") t.roots;
  Format.fprintf fmt "@]"
