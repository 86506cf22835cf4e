(* Fault-layer overhead benchmark: proves shipping the injection guards
   costs nothing when disarmed and changes nothing when armed below the
   quarantine threshold. Writes BENCH_fault.json.

   Disabled overhead is bounded the same way BENCH_obs bounds its
   instrumentation: the measured per-call cost of a disarmed guard times
   the number of guard calls the workload actually executes (counted by
   arming a probability-zero plan, which draws every call but never
   fires), as a fraction of the workload's wall-clock. The gate fails if
   that bound reaches 2%.

   Correctness ride-alongs, both machine-portable booleans:
     identical_results  the io-flaky preset at default retry budgets
                        quarantines nothing and the analysis document is
                        byte-identical to a fault-free run
     replay_identical   a quarantining plan, reinstalled, quarantines the
                        same streams and yields the same document twice

   Knobs (environment): BENCH_SCALE, BENCH_SEED, BENCH_REPS as in the
   other benches. *)

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let scale = env_float "BENCH_SCALE" 0.4
let seed = env_int "BENCH_SEED" 42
let reps = max 1 (env_int "BENCH_REPS" 3)

let time_best f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let ns_per_call ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let components = Dpcore.Component.drivers

let doc_of corpus =
  let impact, impact_prov = Dpcore.Pipeline.run_impact_prov components corpus in
  let graphs =
    Dpcore.Pipeline.build_graphs corpus (Dptrace.Corpus.all_instances corpus)
  in
  let modules = Dpcore.Impact.by_module components graphs in
  let named = Dpcore.Pipeline.run_all components corpus in
  Dputil.Jsonw.to_string
    (Dpcore.Report.Json.document ~impact ~impact_prov ~modules
       ~scenarios:named ())

let install spec =
  match Dpfault.parse spec with
  | Ok plan -> Dpfault.install plan
  | Error msg -> failwith ("fault_bench: " ^ msg)

let () =
  let config = { (Dpworkload.Corpus_gen.scaled scale) with seed } in
  let corpus = Dpworkload.Corpus_gen.generate config in
  Format.printf "%a@." Dptrace.Corpus.pp_summary corpus;
  List.iter
    (fun st -> ignore (Dptrace.Stream.shared_index st))
    corpus.Dptrace.Corpus.streams;

  (* --- macro: screening + full analysis, guards disarmed --- *)
  Dpfault.clear ();
  let workload () =
    let screened, _cov = Dpcore.Pipeline.screen corpus in
    ( Dpcore.Pipeline.run_all components screened,
      fst (Dpcore.Pipeline.run_impact_prov components screened) )
  in
  let workload_s = time_best workload in

  (* --- micro: one disarmed guard --- *)
  let disabled_ns =
    ns_per_call ~iters:20_000_000 (fun () ->
        Dpfault.guard Dpfault.Corpus_read)
  in

  (* Guard calls the workload executes: arm a probability-zero plan — it
     draws at every guarded call without ever firing — and read the
     per-site call counters back. *)
  install "1:corpus.read=eintr@0.0,pool.task=eintr@0.0";
  ignore (Sys.opaque_identity (workload ()));
  let guard_calls =
    List.fold_left
      (fun acc site -> acc + Dpfault.call_count site)
      0 Dpfault.all_sites
  in
  Dpfault.clear ();
  let disabled_overhead_pct =
    100.0 *. (float_of_int guard_calls *. disabled_ns) /. (workload_s *. 1e9)
  in

  (* --- correctness: transparent below the quarantine threshold --- *)
  let plain = doc_of corpus in
  install (Printf.sprintf "%d:io-flaky" seed);
  let screened, cov = Dpcore.Pipeline.screen corpus in
  let identical_results =
    cov.Dpcore.Pipeline.cov_quarantined = [] && doc_of screened = plain
  in
  Dpfault.clear ();

  (* --- correctness: quarantine replays bit-identically --- *)
  let spec = Printf.sprintf "%d:corpus.read=fail@0.6!1" seed in
  let quarantined_run () =
    install spec;
    let screened, cov = Dpcore.Pipeline.screen corpus in
    let doc = doc_of screened in
    Dpfault.clear ();
    (cov, doc)
  in
  let cov1, doc1 = quarantined_run () in
  let cov2, doc2 = quarantined_run () in
  let replay_identical =
    cov1 = cov2 && doc1 = doc2
    && cov1.Dpcore.Pipeline.cov_quarantined <> []
  in

  Printf.printf
    "workload (best of %d): %.3fs\n\
     disarmed guard: %.2f ns/call, %d guard call(s) in the workload\n\
     disabled-mode overhead bound: %.4f%% of workload wall-clock\n\
     io-flaky transparent: %b   quarantine replay identical: %b\n"
    reps workload_s disabled_ns guard_calls disabled_overhead_pct
    identical_results replay_identical;

  let oc = open_out "BENCH_fault.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"fault-inject\",\n\
    \  \"corpus_scale\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"workload_s\": %.3f,\n\
    \  \"disabled_ns_per_call\": %.2f,\n\
    \  \"guard_calls\": %d,\n\
    \  \"disabled_overhead_pct\": %.4f,\n\
    \  \"identical_results\": %b,\n\
    \  \"replay_identical\": %b\n\
     }\n"
    scale seed reps workload_s disabled_ns guard_calls disabled_overhead_pct
    identical_results replay_identical;
  close_out oc;
  print_endline "wrote BENCH_fault.json"
