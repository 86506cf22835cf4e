(* Telemetry overhead benchmark: the parallel-scaling workload (scenario
   fan-out + impact analysis over a pooled corpus) timed with the obs
   layer disabled and enabled, plus microbenchmarks of the individual
   instrumentation primitives and the per-stage wall-clock breakdown the
   span recorder produces. Writes BENCH_obs.json.

   "Disabled overhead" — the cost of shipping the instrumentation at all
   — cannot be measured by differencing two runs of the same binary (the
   sites are compiled in either way), so it is bounded from above: the
   measured per-call cost of a disabled site times the number of sites
   the workload actually executes, as a fraction of the workload's
   wall-clock. The bench fails if that bound reaches 2%.

   Knobs (environment):
     BENCH_SCALE        corpus scale (default 1.0)
     BENCH_SEED         corpus seed (default 42)
     BENCH_REPS         timed repetitions per configuration, best-of
                        (default 3)
     DRIVEPERF_DOMAINS  pool size (default: recommended, floored at 2 so
                        the pool instrumentation is exercised) *)

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let scale = env_float "BENCH_SCALE" 1.0
let seed = env_int "BENCH_SEED" 42
let reps = max 1 (env_int "BENCH_REPS" 3)

(* Best-of-[reps] wall time; the first (untimed) run warms any caches. *)
let time_best f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* ns per call of [f], loop overhead included (it is the same for every
   configuration compared, and itself part of a real call site). *)
let ns_per_call ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let () =
  let config = { (Dpworkload.Corpus_gen.scaled scale) with seed } in
  let corpus = Dpworkload.Corpus_gen.generate config in
  Format.printf "%a@." Dptrace.Corpus.pp_summary corpus;
  let domains = max 2 (Dppar.Pool.default_domains ()) in
  let scenarios =
    List.map
      (fun (tpl : Dpworkload.Scenarios.template) ->
        tpl.Dpworkload.Scenarios.spec.Dptrace.Scenario.name)
      Dpworkload.Scenarios.named
  in
  (* Pre-warm the memoised stream indexes so no configuration is favoured
     by a warmer cache (as in the parallel-scaling bench). *)
  List.iter
    (fun st -> ignore (Dptrace.Stream.shared_index st))
    corpus.Dptrace.Corpus.streams;
  Dppar.Pool.with_pool ~domains @@ fun pool ->
  let workload () =
    ( Dpcore.Pipeline.run_all ~pool ~scenarios Dpcore.Component.drivers corpus,
      fst (Dpcore.Pipeline.run_impact_prov ~pool Dpcore.Component.drivers corpus) )
  in

  (* --- macro: the parallel-scaling workload, disabled vs enabled --- *)
  Dpobs.disable ();
  let t_disabled = time_best workload in
  Dpobs.enable ();
  let t_enabled =
    time_best (fun () ->
        Dpobs.Span.clear ();
        workload ())
  in
  let enabled_overhead_pct = 100.0 *. ((t_enabled /. t_disabled) -. 1.0) in

  (* One clean enabled run for the per-stage breakdown and the count of
     instrumentation sites the workload executes. *)
  Dpobs.Span.clear ();
  ignore (Sys.opaque_identity (workload ()));
  let stages = Dpobs.Span.durations () in
  let span_calls = List.fold_left (fun acc (_, n, _) -> acc + n) 0 stages in
  let metric_updates =
    (* Each pool task performs one busy-time add and one task incr; the
       remaining counters in this workload (scenario progress, index
       hits) are bounded by the same order of magnitude. *)
    Dpobs.Metrics.counter_value (Dpobs.Metrics.counter "pool.tasks") * 2
    + Dpobs.Metrics.counter_value
        (Dpobs.Metrics.counter "pipeline.scenarios_done")
  in

  (* --- micro: per-call cost of one instrumentation site --- *)
  Dpobs.disable ();
  let span_ns_disabled =
    ns_per_call ~iters:20_000_000 (fun () ->
        Dpobs.Span.with_span "bench.noop" (fun () -> ()))
  in
  let counter_ns_disabled =
    let c = Dpobs.Metrics.counter "bench.noop" in
    ns_per_call ~iters:20_000_000 (fun () -> Dpobs.Metrics.incr c)
  in
  Dpobs.enable ();
  let span_ns_enabled =
    let n = ref 0 in
    ns_per_call ~iters:1_000_000 (fun () ->
        incr n;
        if !n land 0xffff = 0 then Dpobs.Span.clear ();
        Dpobs.Span.with_span "bench.noop" (fun () -> ()))
  in
  let counter_ns_enabled =
    let c = Dpobs.Metrics.counter "bench.noop" in
    ns_per_call ~iters:20_000_000 (fun () -> Dpobs.Metrics.incr c)
  in
  Dpobs.disable ();

  (* Upper bound on what the disabled sites cost the real workload. *)
  let disabled_site_ns =
    (float_of_int span_calls *. span_ns_disabled)
    +. (float_of_int metric_updates *. counter_ns_disabled)
  in
  let disabled_overhead_pct = 100.0 *. disabled_site_ns /. (t_disabled *. 1e9) in

  Printf.printf
    "workload (%d domains, best of %d): disabled %.3fs, enabled %.3fs \
     (+%.2f%%)\n\
     span site: disabled %.1f ns/call, enabled %.1f ns/call\n\
     counter site: disabled %.1f ns/call, enabled %.1f ns/call\n\
     sites executed by workload: %d spans, ~%d metric updates\n\
     disabled-mode overhead bound: %.4f%% of workload wall-clock\n"
    domains reps t_disabled t_enabled enabled_overhead_pct span_ns_disabled
    span_ns_enabled counter_ns_disabled counter_ns_enabled span_calls
    metric_updates disabled_overhead_pct;
  Printf.printf "per-stage breakdown (enabled run):\n";
  List.iter
    (fun (name, count, total_ns) ->
      Printf.printf "  %-28s %6d call(s) %10.1f ms\n" name count
        (Int64.to_float total_ns /. 1e6))
    stages;

  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"obs-overhead\",\n\
    \  \"corpus_scale\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"seconds_disabled\": %.3f,\n\
    \  \"seconds_enabled\": %.3f,\n\
    \  \"enabled_overhead_pct\": %.2f,\n\
    \  \"span_ns_disabled\": %.2f,\n\
    \  \"span_ns_enabled\": %.2f,\n\
    \  \"counter_ns_disabled\": %.2f,\n\
    \  \"counter_ns_enabled\": %.2f,\n\
    \  \"workload_span_calls\": %d,\n\
    \  \"workload_metric_updates\": %d,\n\
    \  \"disabled_overhead_pct\": %.4f,\n\
    \  \"stages\": [\n%s\n  ]\n}\n"
    scale seed domains reps t_disabled t_enabled enabled_overhead_pct
    span_ns_disabled span_ns_enabled counter_ns_disabled counter_ns_enabled
    span_calls metric_updates disabled_overhead_pct
    (String.concat ",\n"
       (List.map
          (fun (name, count, total_ns) ->
            Printf.sprintf
              "    { \"stage\": %S, \"calls\": %d, \"total_ms\": %.1f }" name
              count
              (Int64.to_float total_ns /. 1e6))
          stages));
  close_out oc;
  print_endline "wrote BENCH_obs.json";
  if disabled_overhead_pct >= 2.0 then begin
    print_endline "FAIL: disabled-mode overhead bound reaches 2%";
    exit 1
  end
