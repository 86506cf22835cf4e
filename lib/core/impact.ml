module Event = Dptrace.Event
module Wait_graph = Dpwaitgraph.Wait_graph

type result = {
  d_scn : Dputil.Time.t;
  d_wait : Dputil.Time.t;
  d_run : Dputil.Time.t;
  d_waitdist : Dputil.Time.t;
  instances : int;
  counted_waits : int;
  counted_runs : int;
}

let empty =
  {
    d_scn = 0;
    d_wait = 0;
    d_run = 0;
    d_waitdist = 0;
    instances = 0;
    counted_waits = 0;
    counted_runs = 0;
  }

(* The distinct-event sets behind d_waitdist and m_waitdist: one bitset
   per stream over its event ids, so marking an event allocates nothing.
   Keyed by stream id like the (stream, event) pairs they replace. *)
module Marks = struct
  type t = {
    by_stream : (int, Bytes.t) Hashtbl.t;
    mutable last_id : int;
    mutable last : Bytes.t;
  }

  let create () = { by_stream = Hashtbl.create 8; last_id = 0; last = Bytes.empty }

  let for_stream t (st : Dptrace.Stream.t) =
    let id = st.Dptrace.Stream.id in
    let need = (Array.length st.Dptrace.Stream.events + 7) / 8 in
    if id = t.last_id && Bytes.length t.last >= need then t.last
    else begin
      let bits =
        match Hashtbl.find_opt t.by_stream id with
        | Some b when Bytes.length b >= need -> b
        | found ->
          (* Two streams may share an id; their events then share marks,
             exactly as the pairs did. Grow to the larger one. *)
          let b = Bytes.make need '\000' in
          Option.iter (fun old -> Bytes.blit old 0 b 0 (Bytes.length old)) found;
          Hashtbl.replace t.by_stream id b;
          b
      in
      t.last_id <- id;
      t.last <- bits;
      bits
    end

  (* Mark event [eid]; true iff it was not marked yet. *)
  let add bits eid =
    let i = eid lsr 3 and m = 1 lsl (eid land 7) in
    let b = Char.code (Bytes.get bits i) in
    b land m = 0
    && begin
      Bytes.set bits i (Char.unsafe_chr (b lor m));
      true
    end
end

let analyze_graphs_into ?collector components graphs =
  let marks = Marks.create () in
  let d_waitdist = ref 0 in
  let acc = ref empty in
  let measure_graph (g : Wait_graph.t) =
    let stream_id = g.Wait_graph.stream.Dptrace.Stream.id in
    let distinct = Marks.for_stream marks g.Wait_graph.stream in
    let d_scn = Dptrace.Scenario.duration g.Wait_graph.instance in
    let iref =
      lazy (Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
    in
    (* Top-level component waits: BFS that counts a matching wait and does
       not descend into it. Per-graph visited set keeps the DAG linear. *)
    let visited = Bytes.make g.Wait_graph.size '\000' in
    let d_wait = ref 0 and counted_waits = ref 0 in
    let rec bfs (n : Wait_graph.node) =
      let e = n.Wait_graph.event in
      if Char.equal (Bytes.get visited n.Wait_graph.id) '\000' then begin
        Bytes.set visited n.Wait_graph.id '\001';
        if Event.is_wait e && Component.stack_relevant components e.Event.stack
        then begin
          d_wait := !d_wait + e.Event.cost;
          incr counted_waits;
          if Marks.add distinct e.Event.id then
            d_waitdist := !d_waitdist + e.Event.cost;
          match collector with
          | Some c ->
            let signature = Component.event_signature_or_top components e in
            Provenance.Collector.record_wait c
              ~module_name:(Dptrace.Signature.module_part signature)
              ~stream_id ~instance:(Lazy.force iref) ~event:e ~signature
          | None -> ()
        end
        else List.iter bfs n.Wait_graph.children
      end
    in
    List.iter bfs g.Wait_graph.roots;
    (* Component running time over all distinct nodes of the graph. *)
    let d_run = ref 0 and counted_runs = ref 0 in
    Wait_graph.iter_nodes g (fun n ->
        let e = n.Wait_graph.event in
        if Event.is_running e && Component.stack_relevant components e.Event.stack
        then begin
          d_run := !d_run + e.Event.cost;
          incr counted_runs;
          match collector with
          | Some c ->
            let signature = Component.event_signature_or_top components e in
            Provenance.Collector.record_run c ~stream_id
              ~instance:(Lazy.force iref) ~event:e ~signature
          | None -> ()
        end);
    acc :=
      {
        d_scn = !acc.d_scn + d_scn;
        d_wait = !acc.d_wait + !d_wait;
        d_run = !acc.d_run + !d_run;
        d_waitdist = !acc.d_waitdist;
        instances = !acc.instances + 1;
        counted_waits = !acc.counted_waits + !counted_waits;
        counted_runs = !acc.counted_runs + !counted_runs;
      }
  in
  List.iter measure_graph graphs;
  { !acc with d_waitdist = !d_waitdist }

let analyze_graphs components graphs = analyze_graphs_into components graphs

let analyze_graphs_prov components graphs =
  if not (Provenance.enabled ()) then
    (analyze_graphs_into components graphs, Provenance.empty_impact)
  else begin
    let collector = Provenance.Collector.create () in
    let r = analyze_graphs_into ~collector components graphs in
    (r, Provenance.Collector.impact collector)
  end

let merge a b =
  {
    d_scn = a.d_scn + b.d_scn;
    d_wait = a.d_wait + b.d_wait;
    d_run = a.d_run + b.d_run;
    d_waitdist = a.d_waitdist + b.d_waitdist;
    instances = a.instances + b.instances;
    counted_waits = a.counted_waits + b.counted_waits;
    counted_runs = a.counted_runs + b.counted_runs;
  }

let fdiv a b = Dputil.Stats.ratio (float_of_int a) (float_of_int b)

let ia_run r = fdiv r.d_run r.d_scn
let ia_wait r = fdiv r.d_wait r.d_scn
let ia_opt r = fdiv (r.d_wait - r.d_waitdist) r.d_scn
let propagation_ratio r = fdiv r.d_wait r.d_waitdist

type module_row = {
  module_name : string;
  m_wait : Dputil.Time.t;
  m_waitdist : Dputil.Time.t;
  m_run : Dputil.Time.t;
  m_counted_waits : int;
  m_max_wait : Dputil.Time.t;
}

type module_cell = {
  mutable c_wait : Dputil.Time.t;
  mutable c_waitdist : Dputil.Time.t;
  mutable c_run : Dputil.Time.t;
  mutable c_counted : int;
  mutable c_max : Dputil.Time.t;
}

let by_module components graphs =
  let cells : (string, module_cell) Hashtbl.t = Hashtbl.create 32 in
  let cell name =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c = { c_wait = 0; c_waitdist = 0; c_run = 0; c_counted = 0; c_max = 0 } in
      Hashtbl.replace cells name c;
      c
  in
  let module_of (e : Event.t) =
    Option.map
      (fun s -> Dptrace.Signature.module_part s)
      (Component.event_signature components e)
  in
  (* An event's module is a function of the event, so one distinct-event
     set serves every module's m_waitdist. *)
  let marks = Marks.create () in
  List.iter
    (fun (g : Wait_graph.t) ->
      let distinct = Marks.for_stream marks g.Wait_graph.stream in
      let visited = Bytes.make g.Wait_graph.size '\000' in
      let rec bfs (n : Wait_graph.node) =
        let e = n.Wait_graph.event in
        if Char.equal (Bytes.get visited n.Wait_graph.id) '\000' then begin
          Bytes.set visited n.Wait_graph.id '\001';
          if Event.is_wait e && Component.stack_relevant components e.Event.stack
          then begin
            match module_of e with
            | Some name ->
              let c = cell name in
              c.c_wait <- c.c_wait + e.Event.cost;
              c.c_counted <- c.c_counted + 1;
              if e.Event.cost > c.c_max then c.c_max <- e.Event.cost;
              if Marks.add distinct e.Event.id then
                c.c_waitdist <- c.c_waitdist + e.Event.cost
            | None -> ()
          end
          else List.iter bfs n.Wait_graph.children
        end
      in
      List.iter bfs g.Wait_graph.roots;
      Wait_graph.iter_nodes g (fun n ->
          let e = n.Wait_graph.event in
          if Event.is_running e then
            match module_of e with
            | Some name ->
              let c = cell name in
              c.c_run <- c.c_run + e.Event.cost
            | None -> ()))
    graphs;
  Hashtbl.fold
    (fun module_name c acc ->
      {
        module_name;
        m_wait = c.c_wait;
        m_waitdist = c.c_waitdist;
        m_run = c.c_run;
        m_counted_waits = c.c_counted;
        m_max_wait = c.c_max;
      }
      :: acc)
    cells []
  |> List.sort (fun a b ->
         match compare b.m_wait a.m_wait with
         | 0 -> compare a.module_name b.module_name
         | c -> c)

(* Combine per-module rows measured over disjoint streams: the distinct
   tables behind [m_waitdist] key on (stream, event), so plain sums (and
   max of maxes) are exact, and re-sorting restores [by_module]'s order. *)
let merge_modules a b =
  let tbl : (string, module_row) Hashtbl.t = Hashtbl.create 32 in
  let feed r =
    match Hashtbl.find_opt tbl r.module_name with
    | Some p ->
      Hashtbl.replace tbl r.module_name
        {
          p with
          m_wait = p.m_wait + r.m_wait;
          m_waitdist = p.m_waitdist + r.m_waitdist;
          m_run = p.m_run + r.m_run;
          m_counted_waits = p.m_counted_waits + r.m_counted_waits;
          m_max_wait = max p.m_max_wait r.m_max_wait;
        }
    | None -> Hashtbl.replace tbl r.module_name r
  in
  List.iter feed a;
  List.iter feed b;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.m_wait a.m_wait with
         | 0 -> compare a.module_name b.module_name
         | c -> c)

let module_propagation_ratio r =
  fdiv r.m_wait r.m_waitdist

let pp fmt r =
  Format.fprintf fmt
    "impact: %d instances, D_scn=%a, D_wait=%a (IA_wait=%.1f%%), D_run=%a \
     (IA_run=%.1f%%), D_waitdist=%a (IA_opt=%.1f%%, ratio=%.2f)"
    r.instances Dputil.Time.pp r.d_scn Dputil.Time.pp r.d_wait
    (100.0 *. ia_wait r) Dputil.Time.pp r.d_run
    (100.0 *. ia_run r)
    Dputil.Time.pp r.d_waitdist
    (100.0 *. ia_opt r)
    (propagation_ratio r)
