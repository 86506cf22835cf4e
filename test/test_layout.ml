(* The hot-path data layouts against plain references: the component
   verdict table against direct glob matching, dense-id graph traversals
   against event-id-keyed Hashtbl ones, and Stream.create's ordered fast
   path against a tagged sort. *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Signature = Dptrace.Signature
module Callstack = Dptrace.Callstack
module WG = Dpwaitgraph.Wait_graph
module Component = Dpcore.Component
module Impact = Dpcore.Impact

(* --- verdict table --- *)

let pattern_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'S'; '.'; 's'; 'y'; '*'; '?' ]) (int_range 0 6))

let module_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'B'; '.'; 's'; 'Y'; 'x' ]) (int_range 0 8))

(* Fresh signatures are interned on every run, so later ids land past
   the table's initial size and exercise growth after first lookups. *)
let fresh = Atomic.make 0

let intern_fresh modules =
  List.map
    (fun m ->
      Signature.make ~module_name:m
        ~function_name:(Printf.sprintf "f%d" (Atomic.fetch_and_add fresh 1)))
    modules

let agrees comp compiled sigs =
  List.for_all
    (fun s ->
      Component.matches_signature comp s
      = Dputil.Wildcard.matches_any compiled (Signature.module_part s))
    sigs

let prop_verdicts =
  QCheck.Test.make ~count:200 ~name:"verdict table = glob match, across growth"
    QCheck.(
      make
        Gen.(
          triple (list_size (int_range 0 3) pattern_gen)
            (list_size (int_range 1 20) module_gen)
            (list_size (int_range 0 60) module_gen)))
    (fun (patterns, early, late) ->
      let comp = Component.of_patterns patterns in
      let compiled = List.map Dputil.Wildcard.compile patterns in
      let early = intern_fresh early in
      let first = agrees comp compiled early in
      (* Interned after the table has answered lookups. *)
      let late = intern_fresh late in
      first && agrees comp compiled late && agrees comp compiled early)

let test_verdicts_growth () =
  (* Push ids well past the initial table on one component. *)
  let comp = Component.of_patterns [ "*.sys"; "k?rnel" ] in
  let compiled = List.map Dputil.Wildcard.compile [ "*.sys"; "k?rnel" ] in
  let sigs =
    intern_fresh
      (List.init 3000 (fun i ->
           match i mod 4 with 0 -> "a.sys" | 1 -> "kernel" | 2 -> "app" | _ -> "B.SYS"))
  in
  Alcotest.(check bool) "all agree" true (agrees comp compiled sigs)

let test_verdicts_two_domains () =
  (* Two domains look up (and grow) one shared table at once; every
     answer must still be the glob match. *)
  for round = 1 to 20 do
    let patterns = [ "*.sys"; Printf.sprintf "m%d*" round ] in
    let comp = Component.of_patterns patterns in
    let compiled = List.map Dputil.Wildcard.compile patterns in
    let names i = List.init 1500 (fun j -> Printf.sprintf "m%d%s" (i + j) (if j mod 3 = 0 then ".sys" else "")) in
    let a = intern_fresh (names 0) and b = intern_fresh (names 7) in
    let other = Domain.spawn (fun () -> agrees comp compiled b && agrees comp compiled a) in
    let here = agrees comp compiled a && agrees comp compiled b in
    let there = Domain.join other in
    Alcotest.(check bool) (Printf.sprintf "round %d" round) true (here && there)
  done

(* --- random streams --- *)

let frames =
  [|
    [];
    [ "a.sys!Read" ];
    [ "kernel!Wait"; "b.sys!Lock"; "app!Main" ];
    [ "app!Work" ];
    [ "kernel!Hw" ];
    [ "c.sys!Io"; "a.sys!Read" ];
  |]

let ev ~kind ~tid ?(wtid = -1) ~ts ~cost stack =
  {
    Event.id = 0;
    kind;
    stack = Callstack.of_strings frames.(stack);
    ts;
    cost;
    tid;
    wtid;
  }

(* A few threads with random, per-thread non-overlapping activity and
   unwaits aimed at random threads: overlaps across threads make waker
   chains loop back, which exercises cycle cuts. *)
let random_stream_gen id =
  QCheck.Gen.(
    let* nthreads = int_range 1 4 in
    let thread tid =
      let* steps = list_size (int_range 1 12) (quad (int_range 0 3) (int_range 0 30) (int_range 0 5) (int_range 0 3)) in
      let t = ref 0 in
      return
        (List.map
           (fun (k, len, st, target) ->
             let ts = !t in
             match k with
             | 0 ->
               t := ts + len + 1;
               ev ~kind:Event.Running ~tid ~ts ~cost:(len + 1) st
             | 1 ->
               t := ts + len;
               ev ~kind:Event.Wait ~tid ~ts ~cost:len st
             | 2 ->
               t := ts + 1;
               ev ~kind:Event.Unwait ~tid ~wtid:(target mod nthreads) ~ts ~cost:0 st
             | _ ->
               t := ts + len + 1;
               ev ~kind:Event.Hw_service ~tid ~ts ~cost:(len + 1) st)
           steps)
    in
    let* per_thread = flatten_l (List.init nthreads thread) in
    let* instances =
      list_size (int_range 1 4)
        (map3
           (fun tid t0 len ->
             { Dptrace.Scenario.scenario = "S"; tid = tid mod nthreads; t0; t1 = t0 + len })
           (int_range 0 3) (int_range 0 60) (int_range 0 120))
    in
    return
      (Stream.create ~id ~events:(List.concat per_thread) ~instances ~threads:[]))

(* A waker chain [n] threads deep: thread i waits and is woken by thread
   i+1, which is itself waiting inside that window. Past depth 128 the
   build cuts the chain. *)
let chain_stream id n =
  let events =
    List.concat
      (List.init n (fun i ->
           let w = ev ~kind:Event.Wait ~tid:i ~ts:i ~cost:((2 * n) - (2 * i)) 2 in
           if i = 0 then [ w ]
           else [ w; ev ~kind:Event.Unwait ~tid:i ~wtid:(i - 1) ~ts:((2 * n) - i) ~cost:0 1 ]))
    @ [
        ev ~kind:Event.Running ~tid:n ~ts:n ~cost:n 1;
        ev ~kind:Event.Unwait ~tid:n ~wtid:(n - 1) ~ts:(n + 1) ~cost:0 5;
      ]
  in
  Stream.create ~id ~events
    ~instances:[ { Dptrace.Scenario.scenario = "S"; tid = 0; t0 = 0; t1 = 2 * n } ]
    ~threads:[]

let streams_gen =
  QCheck.Gen.(
    let* randoms = list_size (int_range 1 4) (return ()) in
    let* depth = int_range 100 160 in
    let* with_chain = bool in
    let* streams = flatten_l (List.mapi (fun i () -> random_stream_gen i) randoms) in
    return (if with_chain then chain_stream 99 depth :: streams else streams))

let graphs_of streams =
  List.concat_map
    (fun (st : Stream.t) ->
      let index = Stream.shared_index st in
      List.map (WG.build ~index st) st.Stream.instances)
    streams

(* --- event-id-keyed references --- *)

let ref_iter (g : WG.t) f =
  let seen = Hashtbl.create 64 in
  let rec go (n : WG.node) =
    if not (Hashtbl.mem seen n.WG.event.Event.id) then begin
      Hashtbl.replace seen n.WG.event.Event.id ();
      f n;
      List.iter go n.WG.children
    end
  in
  List.iter go g.WG.roots

let ref_node_count g =
  let n = ref 0 in
  ref_iter g (fun _ -> incr n);
  !n

let ref_wait_time g =
  let t = ref 0 in
  ref_iter g (fun n -> if Event.is_wait n.WG.event then t := !t + n.WG.event.Event.cost);
  !t

let comp = Component.drivers

(* Top-level component waits, as Impact counts them, with the
   (stream, event) pairs of the pre-dense-id implementation. *)
let ref_top_waits (g : WG.t) f =
  let seen = Hashtbl.create 64 in
  let rec bfs (n : WG.node) =
    let e = n.WG.event in
    if not (Hashtbl.mem seen e.Event.id) then begin
      Hashtbl.replace seen e.Event.id ();
      if Event.is_wait e && Component.stack_relevant comp e.Event.stack then f e
      else List.iter bfs n.WG.children
    end
  in
  List.iter bfs g.WG.roots

let ref_impact graphs =
  let distinct = Hashtbl.create 64 in
  List.fold_left
    (fun (r : Impact.result) (g : WG.t) ->
      let sid = g.WG.stream.Stream.id in
      let d_wait = ref 0 and waits = ref 0 and d_run = ref 0 and runs = ref 0 in
      ref_top_waits g (fun e ->
          d_wait := !d_wait + e.Event.cost;
          incr waits;
          Hashtbl.replace distinct (sid, e.Event.id) e.Event.cost);
      ref_iter g (fun n ->
          let e = n.WG.event in
          if Event.is_running e && Component.stack_relevant comp e.Event.stack then begin
            d_run := !d_run + e.Event.cost;
            incr runs
          end);
      {
        r with
        Impact.d_scn = r.Impact.d_scn + Dptrace.Scenario.duration g.WG.instance;
        d_wait = r.Impact.d_wait + !d_wait;
        d_run = r.Impact.d_run + !d_run;
        instances = r.Impact.instances + 1;
        counted_waits = r.Impact.counted_waits + !waits;
        counted_runs = r.Impact.counted_runs + !runs;
      })
    Impact.empty graphs
  |> fun r ->
  { r with Impact.d_waitdist = Hashtbl.fold (fun _ c acc -> acc + c) distinct 0 }

let ref_by_module graphs =
  let rows = Hashtbl.create 8 in
  let row name =
    match Hashtbl.find_opt rows name with
    | Some r -> r
    | None ->
      let r = (ref 0, Hashtbl.create 8, ref 0, ref 0, ref 0) in
      Hashtbl.replace rows name r;
      r
  in
  let module_of e = Option.map Signature.module_part (Component.event_signature comp e) in
  List.iter
    (fun (g : WG.t) ->
      let sid = g.WG.stream.Stream.id in
      ref_top_waits g (fun e ->
          match module_of e with
          | Some m ->
            let w, distinct, _, counted, mx = row m in
            w := !w + e.Event.cost;
            incr counted;
            mx := max !mx e.Event.cost;
            Hashtbl.replace distinct (sid, e.Event.id) e.Event.cost
          | None -> ());
      ref_iter g (fun n ->
          let e = n.WG.event in
          if Event.is_running e then
            match module_of e with
            | Some m ->
              let _, _, run, _, _ = row m in
              run := !run + e.Event.cost
            | None -> ()))
    graphs;
  Hashtbl.fold
    (fun module_name (w, distinct, run, counted, mx) acc ->
      {
        Impact.module_name;
        m_wait = !w;
        m_waitdist = Hashtbl.fold (fun _ c t -> t + c) distinct 0;
        m_run = !run;
        m_counted_waits = !counted;
        m_max_wait = !mx;
      }
      :: acc)
    rows []
  |> List.sort (fun (a : Impact.module_row) b ->
         match compare b.Impact.m_wait a.Impact.m_wait with
         | 0 -> compare a.Impact.module_name b.Impact.module_name
         | c -> c)

(* Every node reachable from the roots — stubs included — carries one id
   per distinct event, below [size]. *)
let ids_per_event (g : WG.t) =
  let by_event = Hashtbl.create 64 and by_id = Hashtbl.create 64 in
  let ok = ref true in
  let note (n : WG.node) =
    let eid = n.WG.event.Event.id in
    if n.WG.id < 0 || n.WG.id >= g.WG.size then ok := false;
    (match Hashtbl.find_opt by_event eid with
    | Some id -> if id <> n.WG.id then ok := false
    | None -> Hashtbl.replace by_event eid n.WG.id);
    match Hashtbl.find_opt by_id n.WG.id with
    | Some e -> if e <> eid then ok := false
    | None -> Hashtbl.replace by_id n.WG.id eid
  in
  let expanded = Hashtbl.create 64 in
  let rec go (n : WG.node) =
    note n;
    if n.WG.children <> [] && not (Hashtbl.mem expanded n.WG.event.Event.id) then begin
      Hashtbl.replace expanded n.WG.event.Event.id ();
      List.iter go n.WG.children
    end
  in
  List.iter go g.WG.roots;
  !ok

let print_streams streams =
  String.concat "\n"
    (List.map (fun st -> Format.asprintf "%a" Stream.pp_summary st) streams)

let streams_arb = QCheck.make ~print:print_streams streams_gen

let prop_traversals =
  QCheck.Test.make ~count:150 ~name:"dense-id traversals = event-id Hashtbl reference"
    streams_arb (fun streams ->
      let graphs = graphs_of streams in
      List.for_all
        (fun g ->
          ids_per_event g
          && WG.node_count g = ref_node_count g
          && WG.wait_time g = ref_wait_time g)
        graphs
      && Impact.analyze_graphs comp graphs = ref_impact graphs
      && Impact.by_module comp graphs = ref_by_module graphs)

let test_chain_is_cut () =
  let st = chain_stream 0 150 in
  let g = WG.build st (List.hd st.Stream.instances) in
  (* Depths 0..128 expand; the wait at depth 129 is a childless stub. *)
  Alcotest.(check int) "depth capped" 130 (WG.depth g);
  Alcotest.(check int) "nodes" (ref_node_count g) (WG.node_count g);
  Alcotest.(check bool) "ids per event" true (ids_per_event g)

(* --- Stream.create --- *)

(* The pre-fast-path implementation: tag with emission position, sort,
   renumber. *)
let ref_sorted events =
  let tagged = Array.of_list (List.mapi (fun pos e -> (pos, e)) events) in
  Array.sort
    (fun (pa, (a : Event.t)) (pb, (b : Event.t)) ->
      match compare a.ts b.ts with
      | 0 -> (
        match compare a.tid b.tid with
        | 0 -> (
          match compare (min a.cost 1) (min b.cost 1) with
          | 0 -> compare pa pb
          | c -> c)
        | c -> c)
      | c -> c)
    tagged;
  Array.mapi (fun i (_, (e : Event.t)) -> { e with Event.id = i }) tagged

let events_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (map3
         (fun (ts, tid) (cost, k) (st, id) ->
           let kind = [| Event.Running; Event.Wait; Event.Unwait; Event.Hw_service |].(k) in
           { (ev ~kind ~tid ~ts ~cost st) with Event.id = id })
         (pair (int_range 0 6) (int_range 0 2))
         (pair (int_range 0 2) (int_range 0 3))
         (pair (int_range 0 5) (int_range 0 50))))

let prop_create =
  QCheck.Test.make ~count:300 ~name:"Stream.create: shuffled and ordered input = sorted reference"
    (QCheck.make events_gen)
    (fun events ->
      let shuffled = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
      let expected = ref_sorted events in
      let ordered =
        Stream.create ~id:0 ~events:(Array.to_list expected) ~instances:[] ~threads:[]
      in
      shuffled.Stream.events = expected && ordered.Stream.events = expected)

let () =
  Alcotest.run "layout"
    [
      ( "verdicts",
        [
          QCheck_alcotest.to_alcotest prop_verdicts;
          Alcotest.test_case "table growth" `Quick test_verdicts_growth;
          Alcotest.test_case "two domains at once" `Quick test_verdicts_two_domains;
        ] );
      ( "graphs",
        [
          QCheck_alcotest.to_alcotest prop_traversals;
          Alcotest.test_case "deep chain is cut" `Quick test_chain_is_cut;
        ] );
      ("stream", [ QCheck_alcotest.to_alcotest prop_create ]);
    ]
