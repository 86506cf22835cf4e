module Wait_graph = Dpwaitgraph.Wait_graph

type scenario_result = {
  classification : Classify.t;
  slow_impact : Impact.result;
  slow_impact_prov : Provenance.impact;
  fast_awg : Awg.t;
  slow_awg : Awg.t;
  mining : Mining.result;
  coverages : Evaluation.coverages;
}

(* Stage spans: one span per pipeline stage per scenario, recorded on
   whichever domain runs the stage, so a pooled run_all shows its
   scenario fan-out per domain in the Chrome trace. The scenarios_done
   counter drives the --progress line. Like every metric handle in the
   library it is looked up in the registry (a mutex-guarded
   get-or-create) where it is used, never held in a global [lazy]: pool
   workers would force that from several domains at once, and OCaml 5
   raises [CamlinternalLazy.Undefined] when they do. *)
let span = Dpobs.Span.with_span
let scenarios_done () = Dpobs.Metrics.counter "pipeline.scenarios_done"

let build_graphs ?pool _corpus entries =
  span "pipeline.build_graphs" @@ fun () ->
  (* Group the instances by stream — each group resolves the stream's
     memoised index exactly once (Dptrace.Stream.shared_index), whether
     the groups run on one domain or many — then restore the caller's
     entry order, so the parallel build returns the very same list the
     sequential one does. *)
  match entries with
  | [] -> []
  | entries ->
    let groups_tbl :
        (int, (int * Dptrace.Scenario.instance) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    List.iteri
      (fun pos ((st : Dptrace.Stream.t), inst) ->
        match Hashtbl.find_opt groups_tbl st.Dptrace.Stream.id with
        | Some items -> items := (pos, inst) :: !items
        | None ->
          let items = ref [ (pos, inst) ] in
          Hashtbl.replace groups_tbl st.Dptrace.Stream.id items;
          order := (st, items) :: !order)
      entries;
    let groups =
      List.rev_map (fun (st, items) -> (st, List.rev !items)) !order
      |> List.rev
    in
    let build_group ((st : Dptrace.Stream.t), items) =
      let index = Dptrace.Stream.shared_index st in
      List.map (fun (pos, inst) -> (pos, Wait_graph.build ~index st inst)) items
    in
    let built =
      match pool with
      | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool build_group groups
      | None -> List.map build_group groups
    in
    let out = Array.make (List.length entries) None in
    List.iter (List.iter (fun (pos, g) -> out.(pos) <- Some g)) built;
    Array.to_list out
    |> List.map (function Some g -> g | None -> assert false)

(* The tail both scenario paths share: the coverage denominator is
   everything the slow-class aggregation absorbed at its end nodes, plus
   the non-optimisable mass the reduction pruned (counted as
   unexplainable driver cost). Bounded and consistent with the patterns'
   end-node costs. *)
let finish_scenario ~classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg ~mining =
  let driver_cost =
    Awg.total_leaf_cost slow_awg + (Awg.reduction slow_awg).Awg.pruned_cost
  in
  let coverages =
    span "pipeline.evaluation" (fun () ->
        Evaluation.time_coverages mining.Mining.patterns
          ~tslow:classification.Classify.spec.Dptrace.Scenario.tslow
          ~driver_cost)
  in
  {
    classification;
    slow_impact;
    slow_impact_prov;
    fast_awg;
    slow_awg;
    mining;
    coverages;
  }

let run_scenario ?pool ?(k = Mining.default_k) ?(reduce = true) components
    corpus name =
  span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let fast_graphs = build_graphs ?pool corpus classification.Classify.fast in
  let slow_graphs = build_graphs ?pool corpus classification.Classify.slow in
  let slow_impact, slow_impact_prov =
    span "pipeline.impact" (fun () ->
        Impact.analyze_graphs_prov components slow_graphs)
  in
  let fast_awg =
    span "pipeline.awg_build" (fun () ->
        Awg.build ?pool ~reduce components fast_graphs)
  in
  let slow_awg =
    span "pipeline.awg_build" (fun () ->
        Awg.build ?pool ~reduce components slow_graphs)
  in
  let mining =
    span "pipeline.mining" (fun () ->
        Mining.mine ?pool ~k ~fast:fast_awg ~slow:slow_awg
          ~spec:classification.Classify.spec ())
  in
  finish_scenario ~classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg ~mining

(* Merge two (impact, provenance) partials. With provenance off every
   partial carries {!Provenance.empty_impact}, so only the impact is
   merged: the fold does no more work than a plain impact pass. *)
let merge_impact_prov () =
  if Provenance.enabled () then fun (r1, p1) (r2, p2) ->
    (Impact.merge r1 r2, Provenance.merge_impact p1 p2)
  else fun (r1, p1) (r2, _) -> (Impact.merge r1 r2, p1)

let no_impact = (Impact.empty, Provenance.empty_impact)

let run_impact_prov ?pool components (corpus : Dptrace.Corpus.t) =
  (* One partial result per stream — each stream's memoised index is
     built at most once — merged in stream order. The distinct-wait
     deduplication never crosses streams, every impact field merges by
     integer addition, provenance records are keyed by (stream, event)
     and its reservoirs are association-independent: the per-stream
     reduction is exact, so parallel and sequential runs agree. *)
  let of_stream (st : Dptrace.Stream.t) =
    let index = Dptrace.Stream.shared_index st in
    Impact.analyze_graphs_prov components
      (List.map (Wait_graph.build ~index st) st.Dptrace.Stream.instances)
  in
  let merge = merge_impact_prov () in
  let streams = corpus.Dptrace.Corpus.streams in
  match pool with
  | Some pool ->
    Dppar.Pool.parallel_map_reduce pool ~map:of_stream ~reduce:merge
      ~init:no_impact streams
  | None ->
    List.fold_left (fun acc st -> merge acc (of_stream st)) no_impact streams

(* Per-scenario impacts in report order: [d_wait] descending, then name. *)
let sort_scenario_impacts =
  List.sort (fun (na, (a : Impact.result)) (nb, (b : Impact.result)) ->
      match compare b.Impact.d_wait a.Impact.d_wait with
      | 0 -> compare na nb
      | c -> c)

let count_scenario_done () =
  if Dpobs.metrics_on () then Dpobs.Metrics.incr (scenarios_done ())

let impact_per_scenario ?pool components corpus =
  (* Scenario-level fan-out; graph building inside each scenario stays
     sequential (one unit of work per worker, no nested parallelism). The
     final order is fixed by the sort, never by completion order. *)
  let impact_of name =
    let graphs = build_graphs corpus (Dptrace.Corpus.instances_of corpus name) in
    let r = (name, Impact.analyze_graphs components graphs) in
    count_scenario_done ();
    r
  in
  let names = Dptrace.Corpus.scenario_names corpus in
  sort_scenario_impacts
    (match pool with
    | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool impact_of names
    | None -> List.map impact_of names)

(* The fan-out both [run_all]s share: one scenario per work item, each
   run sequentially in its worker, results in the order of [names] (not
   completion order); names without a spec are skipped. *)
let fan_out ?pool ?scenarios corpus run =
  let names =
    match scenarios with
    | Some names -> names
    | None -> Dptrace.Corpus.scenario_names corpus
  in
  let one name =
    let r =
      match run name with
      | r -> Some (name, r)
      | exception Not_found -> None
    in
    count_scenario_done ();
    r
  in
  (match pool with
  | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool one names
  | None -> List.map one names)
  |> List.filter_map Fun.id

let run_all ?pool ?k ?reduce ?scenarios components corpus =
  fan_out ?pool ?scenarios corpus (run_scenario ?k ?reduce components corpus)

(* --- snapshot-backed variants ---

   Each mirrors its from-scratch counterpart exactly: the snapshot holds
   the same per-stream partials the plain paths' reductions produce, and
   they are merged here in the same order (corpus stream order) with the
   same merge operators, so every cached result — impact integers,
   provenance reservoirs, AWG forests, mined patterns — is bit-identical
   to the uncached run whatever mix of cache hits and misses produced
   the entries. *)

let fold_entries snapshot (corpus : Dptrace.Corpus.t) ~init ~merge ~of_entry =
  List.fold_left
    (fun acc st -> merge acc (of_entry (Snapshot.entry snapshot st)))
    init corpus.Dptrace.Corpus.streams

let run_impact_prov_snap snapshot corpus =
  span "pipeline.impact_snap" @@ fun () ->
  fold_entries snapshot corpus ~init:no_impact ~merge:(merge_impact_prov ())
    ~of_entry:Snapshot.entry_impact_prov

(* Per-stream impacts, unmerged, in corpus stream order: the partials
   the bootstrap resamples. *)
let stream_impacts_snap snapshot (corpus : Dptrace.Corpus.t) =
  List.map
    (fun st -> fst (Snapshot.entry_impact_prov (Snapshot.entry snapshot st)))
    corpus.Dptrace.Corpus.streams

let modules_snap snapshot corpus =
  fold_entries snapshot corpus ~init:[] ~merge:Impact.merge_modules
    ~of_entry:Snapshot.entry_modules

let impact_per_scenario_snap snapshot corpus =
  let impact_of name =
    let r =
      fold_entries snapshot corpus ~init:Impact.empty ~merge:Impact.merge
        ~of_entry:(fun e ->
          Option.value ~default:Impact.empty
            (Snapshot.entry_scenario_impact e name))
    in
    count_scenario_done ();
    (name, r)
  in
  sort_scenario_impacts
    (List.map impact_of (Dptrace.Corpus.scenario_names corpus))

(* Cached [run_scenario]: classification is recomputed (cheap, and part
   of the result); impact, provenance and both AWGs come from merged
   snapshot partials; mining and coverages are computed on the merge. *)
let run_scenario_snap ?(k = Mining.default_k) ?(reduce = true) snapshot corpus
    name =
  span ~args:[ ("scenario", name) ] "pipeline.run_scenario_snap" @@ fun () ->
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let parts =
    List.filter_map
      (fun st ->
        Snapshot.entry_scenario_class (Snapshot.entry snapshot st) name)
      corpus.Dptrace.Corpus.streams
  in
  let slow_impact, slow_impact_prov =
    List.fold_left
      (fun (r, p) (ri, pi, _, _) ->
        (Impact.merge r ri, Provenance.merge_impact p pi))
      no_impact parts
  in
  let fast_awg =
    span "pipeline.awg_merge" (fun () ->
        Awg.Partial.merge_all ~reduce
          (List.map (fun (_, _, f, _) -> f) parts))
  in
  let slow_awg =
    span "pipeline.awg_merge" (fun () ->
        Awg.Partial.merge_all ~reduce
          (List.map (fun (_, _, _, s) -> s) parts))
  in
  (* The miner dominates a warm re-analysis, and its inputs are a pure
     function of the snapshot fingerprint + contributing streams, so its
     result is cached at scenario granularity (digest-checked; identical
     either way). *)
  let mining =
    span "pipeline.mining" (fun () ->
        match Snapshot.find_mining snapshot corpus name ~reduce ~k with
        | Some m -> m
        | None ->
          let m =
            Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
              ~spec:classification.Classify.spec ()
          in
          Snapshot.store_mining snapshot corpus name ~reduce ~k m;
          m)
  in
  finish_scenario ~classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg ~mining

let run_all_snap ?pool ?k ?reduce ?scenarios snapshot corpus =
  fan_out ?pool ?scenarios corpus
    (run_scenario_snap ?k ?reduce snapshot corpus)

let driver_cost_fraction r =
  (* Distinct driver time over slow-class scenario time: the paper's
     "Driver Cost" column is a plain share of execution time, so the
     multiplicity-weighted D_wait would overstate it. *)
  Dputil.Stats.ratio
    (float_of_int (r.slow_impact.Impact.d_waitdist + r.slow_impact.Impact.d_run))
    (float_of_int r.slow_impact.Impact.d_scn)

(* --- fault screening: graceful degradation under injected faults --- *)

type coverage = {
  cov_total : int;
  cov_analyzed : int;
  cov_quarantined : (int * string) list;
}

let full_coverage (corpus : Dptrace.Corpus.t) =
  let n = Dptrace.Corpus.stream_count corpus in
  { cov_total = n; cov_analyzed = n; cov_quarantined = [] }

let screen (corpus : Dptrace.Corpus.t) =
  if not (Dpfault.armed ()) then (corpus, full_coverage corpus)
  else begin
    (* One [corpus.read] probe per stream, in corpus order (so the
       plan's per-call draws are reproducible): a stream whose retries
       exhaust is quarantined with its reason instead of aborting the
       run. The kept streams preserve corpus order, so a screening that
       quarantines nothing leaves every downstream result — text and
       JSON — byte-identical to a fault-free run. *)
    let kept, quarantined =
      List.partition_map
        (fun (st : Dptrace.Stream.t) ->
          match
            Dpfault.Retry.run Dpfault.Corpus_read (fun () ->
                Dpfault.guard Dpfault.Corpus_read)
          with
          | () -> Left st
          | exception Dpfault.Injected { kind; _ } ->
            Right
              ( st.Dptrace.Stream.id,
                Printf.sprintf
                  "injected %s at corpus.read exhausted %d attempt(s)"
                  (Dpfault.kind_name kind)
                  (Dpfault.Retry.budget Dpfault.Corpus_read) ))
        corpus.Dptrace.Corpus.streams
    in
    List.iter
      (fun (sid, reason) ->
        Dpobs.Log.warn "stream %d quarantined: %s" sid reason)
      quarantined;
    ( Dptrace.Corpus.create ~streams:kept ~specs:corpus.Dptrace.Corpus.specs,
      {
        cov_total = Dptrace.Corpus.stream_count corpus;
        cov_analyzed = List.length kept;
        cov_quarantined = quarantined;
      } )
  end
