(* drivebench: one end-to-end benchmark for driveperf.

   Usage (from the root of a driveperf checkout, after building):
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --driveperf PATH [--scale F] [--corrupt-reference]

   Set-up generates the inputs from the seed with the program's own
   simulator and codec, and captures the reference output; the timed
   loop then runs ops for S seconds and checks every output. The last
   stdout line is one JSON object: correct, attempted, failed, metrics.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, from ops wrapped in the benchmark's own spans (see
   spans.ml), alternating with plain ops so the tracing overhead is
   measured too. README.md has the workload and metric tables. *)

module Corpus = Dptrace.Corpus
module Corpus_gen = Dpworkload.Corpus_gen
module Pipeline = Dpcore.Pipeline
module Snapshot = Dpcore.Snapshot
module Monitor = Dpmon.Monitor

type kind = Report_seq | Report_par | Report_warm | Monitor_tick

let workloads =
  [
    ( "report_seq",
      Report_seq,
      "report --json on 1 domain, no cache: every compute layer does its \
       full work; the pool and the snapshot do none" );
    ( "report_par",
      Report_par,
      "the same corpus and bytes on a pool of 2 domains: the pool's work \
       and its contention show as the gap to report_seq" );
    ( "report_warm",
      Report_warm,
      "the same corpus on 1 domain against a filled --cache store: decode \
       and snapshot load/save dominate, graphs and mining do nothing" );
    ( "monitor_tick",
      Monitor_tick,
      "an in-process monitor ticking once per arriving file: the only \
       workload that runs rules, bootstrap drift CIs and Diff" );
  ]

(* Report corpora are sized so one sequential op takes about 2 s on a
   2-core x86 box; monitor files are an eighth of that. *)
let report_scale = 2.0
let monitor_window = Monitor.default_config.Monitor.window
let setup_reps = 3

type args = {
  kind : kind;
  name : string;
  why : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;
  driveperf : string;
  corrupt_reference : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --driveperf PATH [--scale F] [--corrupt-reference]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and driveperf = ref None in
  let scale = ref report_scale and corrupt = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--driveperf" :: v :: rest -> driveperf := Some v; go rest
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f when f > 0. -> scale := f
      | _ -> usage ());
      go rest
    | "--corrupt-reference" :: rest -> corrupt := true; go rest
    | [] -> ()
    | arg :: _ ->
      prerr_endline ("bench.exe: unexpected argument " ^ arg);
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !driveperf) with
  | Some w, Some seed, Some seconds, Some trace, Some driveperf
    when seconds > 0. -> (
    match List.find_opt (fun (n, _, _) -> n = w) workloads with
    | None ->
      prerr_endline ("bench.exe: unknown workload " ^ w);
      usage ()
    | Some (name, kind, why) ->
      {
        kind;
        name;
        why;
        seed;
        seconds;
        trace;
        scale = !scale;
        driveperf;
        corrupt_reference = !corrupt;
      })
  | _ -> usage ()

(* --- what every op reports back to the coordinator --- *)

type input = { streams : int; events : int; bytes : int }

type op = {
  ok : bool;  (** Output matched its reference. *)
  traced : bool;
  wall_ms : float;
  events : int;  (** Events the op processed. *)
  cpu_s : float;
  domains : int;
  rss_mb : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  pause_ms : float;
  lost_events : int;  (** Runtime events the ring dropped unread. *)
  spans : Spans.span list;  (** Empty for plain ops. *)
  out_bytes : int;
  snap : (Snapshot.stats * int) option;  (** Stats and store bytes. *)
  alerts : int;
}

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  ( g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.promoted_words -. g0.Gc.promoted_words,
    g1.Gc.minor_collections - g0.Gc.minor_collections,
    g1.Gc.major_collections - g0.Gc.major_collections )

let domains a = if a.kind = Report_par then 2 else 1

let scn_names =
  [
    "scn.classify"; "scn.graphs"; "scn.impact"; "scn.awg"; "scn.mining"; "scn.eval";
  ]

(* --- report workloads --- *)

let components = Dpcore.Component.drivers

let scenario_names =
  List.map
    (fun (t : Dpworkload.Scenarios.template) ->
      t.Dpworkload.Scenarios.spec.Dptrace.Scenario.name)
    Dpworkload.Scenarios.named

type report_paths = {
  dir : string;
  corpus : string;
  reference : string;
  cache : string;
  fill : string;  (** report_warm's cold-fill output *)
}

let report_paths dir =
  {
    dir;
    corpus = Filename.concat dir "corpus.dpf";
    reference = Filename.concat dir "reference.json";
    cache = Filename.concat dir "cache";
    fill = Filename.concat dir "fill.json";
  }

let cli a args ~out =
  let code = Proc.run_cli ~exe:a.driveperf ~stdout_file:out args in
  if code <> 0 then
    failwith
      (Printf.sprintf "driveperf %s exited with %d" (String.concat " " args) code)

(* One timed set-up, in a child: generate and encode the corpus, and for
   report_warm fill an empty cache with a cold --cache run, keeping its
   output to check against the reference. *)
let report_setup a p () =
  Proc.rm_rf p.dir;
  Proc.mkdir_p p.dir;
  let corpus =
    Corpus_gen.generate
      { Corpus_gen.default_config with seed = a.seed; scale = a.scale }
  in
  Dptrace.Codec_v2.save p.corpus corpus;
  if a.kind = Report_warm then
    cli a
      [ "report"; "--json"; "-j"; "1"; "--cache"; p.cache; "-c"; p.corpus ]
      ~out:p.fill;
  {
    streams = Corpus.stream_count corpus;
    events = Corpus.event_count corpus;
    bytes = Proc.file_size p.corpus;
  }

let render ~coverage ~impact ~impact_prov ~modules ~named =
  Dputil.Jsonw.to_string
    (Dpcore.Report.Json.document ~coverage ~impact ~impact_prov ~modules
       ~scenarios:named ())

(* run_scenario's public steps, one span each, for the traced
   report_seq: the same calls in the same order as Pipeline.run_all on
   one domain, so the rendered bytes are the same. *)
let scenarios_split r corpus =
  let sp name f = Spans.span r name f in
  List.filter_map
    (fun name ->
      sp ("scn:" ^ name) @@ fun () ->
      match sp "scn.classify" (fun () -> Dpcore.Classify.classify corpus name) with
      | exception Not_found -> None
      | classification ->
        let graphs cls =
          sp "scn.graphs" (fun () -> Pipeline.build_graphs corpus cls)
        in
        let fast_graphs = graphs classification.Dpcore.Classify.fast in
        let slow_graphs = graphs classification.Dpcore.Classify.slow in
        let slow_impact, slow_impact_prov =
          sp "scn.impact" (fun () ->
              Dpcore.Impact.analyze_graphs_prov components slow_graphs)
        in
        let awg graphs =
          sp "scn.awg" (fun () -> Dpcore.Awg.build ~reduce:true components graphs)
        in
        let fast_awg = awg fast_graphs in
        let slow_awg = awg slow_graphs in
        let mining =
          sp "scn.mining" (fun () ->
              Dpcore.Mining.mine ~fast:fast_awg ~slow:slow_awg
                ~spec:classification.Dpcore.Classify.spec ())
        in
        let driver_cost =
          Dpcore.Awg.total_leaf_cost slow_awg
          + (Dpcore.Awg.reduction slow_awg).Dpcore.Awg.pruned_cost
        in
        let coverages =
          sp "scn.eval" (fun () ->
              Dpcore.Evaluation.time_coverages mining.Dpcore.Mining.patterns
                ~tslow:
                  classification.Dpcore.Classify.spec.Dptrace.Scenario.tslow
                ~driver_cost)
        in
        Some
          ( name,
            {
              Pipeline.classification;
              slow_impact;
              slow_impact_prov;
              fast_awg;
              slow_awg;
              mining;
              coverages;
            } ))
    scenario_names

(* One report op, from the .dpf path to the finished document bytes (and,
   for report_warm, the rewritten store): the calls `driveperf report
   --json` makes, each inside a span. *)
let report_body a p (r : Spans.recorder) =
  let sp name f = Spans.span r name f in
  Dpcore.Provenance.enable ();
  Dppar.Pool.with_pool ~domains:(domains a) @@ fun pool ->
  let corpus =
    sp "decode" (fun () ->
        match Dptrace.Corpus_dir.load ~pool ~mode:`Strict p.corpus with
        | Ok l -> l.Dptrace.Corpus_dir.l_corpus
        | Error msg -> failwith msg)
  in
  let corpus, coverage = Pipeline.screen corpus in
  if a.kind = Report_warm then begin
    let fingerprint =
      Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
        ~k:Dpcore.Mining.default_k ()
    in
    let snap =
      sp "snapshot.load" (fun () -> Snapshot.create ~dir:p.cache ~fingerprint ())
    in
    sp "snapshot.ensure" (fun () -> Snapshot.ensure ~pool snap components corpus);
    let impact, impact_prov =
      sp "impact" (fun () -> Pipeline.run_impact_prov_snap snap corpus)
    in
    let named =
      sp "scenarios" (fun () ->
          Pipeline.run_all_snap ~pool ~scenarios:scenario_names snap corpus)
    in
    let modules = sp "modules" (fun () -> Pipeline.modules_snap snap corpus) in
    let doc =
      sp "render" (fun () -> render ~coverage ~impact ~impact_prov ~modules ~named)
    in
    sp "snapshot.save" (fun () -> Snapshot.save snap);
    (doc, Some (Snapshot.stats snap))
  end
  else begin
    let impact, impact_prov =
      sp "impact" (fun () -> Pipeline.run_impact_prov ~pool components corpus)
    in
    let named =
      sp "scenarios" (fun () ->
          if r.Spans.on && a.kind = Report_seq then scenarios_split r corpus
          else Pipeline.run_all ~pool ~scenarios:scenario_names components corpus)
    in
    let modules =
      sp "modules" (fun () ->
          Dpcore.Impact.by_module components
            (Pipeline.build_graphs ~pool corpus (Corpus.all_instances corpus)))
    in
    let doc =
      sp "render" (fun () -> render ~coverage ~impact ~impact_prov ~modules ~named)
    in
    (doc, None)
  end

(* Run one op in this (freshly forked) process and account for it. *)
let report_op a p ~(input : input) ~reference ~traced ~index () =
  let r = Spans.recorder ~on:traced in
  Spans.start_op r index;
  let pauses = if traced then Some (Spans.start_pauses ()) else None in
  Option.iter (fun ps -> r.Spans.poll <- (fun () -> Spans.poll_pauses ps)) pauses;
  let g0 = Gc.quick_stat () and c0 = Proc.cpu_s () in
  let (doc, stats), wall_ms =
    Proc.time_ms (fun () -> Spans.span r "op" (fun () -> report_body a p r))
  in
  let c1 = Proc.cpu_s () and g1 = Gc.quick_stat () in
  Option.iter Spans.poll_pauses pauses;
  let minor_words, promoted_words, minor_collections, major_collections =
    gc_delta g0 g1
  in
  {
    ok = doc = reference;
    traced;
    wall_ms;
    events = input.events;
    cpu_s = c1 -. c0;
    domains = domains a;
    rss_mb = Proc.peak_rss_mb ();
    minor_words;
    promoted_words;
    minor_collections;
    major_collections;
    pause_ms = Option.fold ~none:0. ~some:Spans.paused_ms pauses;
    lost_events = Option.fold ~none:0 ~some:(fun ps -> !(ps.Spans.lost)) pauses;
    spans = Spans.spans r;
    out_bytes = String.length doc;
    snap =
      Option.map (fun s -> (s, Proc.file_size_in_dir p.cache ".dpsnap")) stats;
    alerts = 0;
  }

(* --- monitor workload --- *)

let monitor_scale a = a.scale /. 8.
let monitor_file dir i = Filename.concat dir (Printf.sprintf "f%03d.dpf" i)

(* File [i] of the arrival sequence: calm, with cross-traffic in every
   fifth file. *)
let gen_monitor_file a dir i () =
  Spans.unlink_ring ();
  let corpus =
    Corpus_gen.generate
      {
        Corpus_gen.default_config with
        seed = (a.seed * 1000) + i;
        scale = monitor_scale a;
        cross_traffic = i mod 5 = 4;
      }
  in
  let path = monitor_file dir i in
  Dptrace.Codec_v2.save path corpus;
  { streams = Corpus.stream_count corpus; events = Corpus.event_count corpus;
    bytes = Proc.file_size path }

let monitor_config dir tag =
  {
    Monitor.default_config with
    alert_log = Some (Filename.concat dir (tag ^ ".jsonl"));
    metrics_out = Some (Filename.concat dir (tag ^ ".om"));
  }

let stats_delta (s0 : Snapshot.stats) (s1 : Snapshot.stats) =
  {
    s1 with
    Snapshot.s_hits = s1.Snapshot.s_hits - s0.Snapshot.s_hits;
    s_misses = s1.Snapshot.s_misses - s0.Snapshot.s_misses;
    s_mining_hits = s1.Snapshot.s_mining_hits - s0.Snapshot.s_mining_hits;
    s_mining_misses = s1.Snapshot.s_mining_misses - s0.Snapshot.s_mining_misses;
  }

let manifest_path dir = Filename.concat dir "arrivals.manifest"

type monitor_run = { fill_ms : float; ticks : op list }

(* A monitor fed the way Monitor.replay feeds one, so that the manifest
   written alongside reproduces it: reset registry, fresh log, virtual
   clock from 0, the window's files, one tick. With [loop], then one
   arriving file per tick until [a.seconds] have passed, and at least
   until the window has turned over; each arriving file is generated in
   a child beforehand, outside the timed span. *)
let monitor_process a dir ~loop () =
  let t_start = Proc.now_ns () in
  Dpobs.Metrics.reset ();
  let m = Monitor.create ~fresh_log:true (monitor_config dir "loop") in
  let manifest = Buffer.create 1024 in
  Monitor.set_clock m 0;
  let ingest i =
    Buffer.add_string manifest
      (Printf.sprintf "add %s\n" (Filename.basename (monitor_file dir i)));
    match Monitor.ingest m ~mtime_ms:(Monitor.now_ms m) (monitor_file dir i) with
    | Ok () -> ()
    | Error msg -> failwith msg
  in
  for i = 0 to monitor_window - 1 do
    ingest i
  done;
  Buffer.add_string manifest "tick\n";
  ignore (Monitor.tick m : Dpmon.Rules.alert list);
  let fill_ms = Proc.ms_between t_start (Proc.now_ns ()) in
  let ticks = ref [] in
  if loop then begin
    (* The event ring runs during traced ticks only, so that it is never
       left to wrap unread. *)
    let pauses =
      if a.trace then begin
        let ps = Spans.start_pauses () in
        Runtime_events.pause ();
        Some ps
      end
      else None
    in
    let t_loop = Proc.now_ns () in
    let i = ref monitor_window and n = ref 0 in
    (* Analysed since the window's tick, so the store exists. *)
    let stats () = Option.get (Monitor.snapshot_stats m) in
    let elapsed_ms () = Proc.ms_between t_loop (Proc.now_ns ()) in
    while !n < monitor_window || elapsed_ms () < a.seconds *. 1000. do
      let arriving =
        match Proc.in_child (gen_monitor_file a dir !i) with
        | Ok input -> input
        | Error msg -> failwith ("generating an arriving file: " ^ msg)
      in
      let traced = a.trace && !n mod 2 = 1 in
      let r = Spans.recorder ~on:traced in
      Spans.start_op r !n;
      Option.iter
        (fun ps ->
          if traced then begin
            ps.Spans.paused_ns := 0L;
            r.Spans.poll <- (fun () -> Spans.poll_pauses ps);
            Runtime_events.resume ()
          end)
        pauses;
      Buffer.add_string manifest "clock +1000\n";
      Monitor.advance_clock m 1000;
      let s0 = stats () in
      let g0 = Gc.quick_stat () and c0 = Proc.cpu_s () in
      let alerts, wall_ms =
        Proc.time_ms (fun () ->
            Spans.span r "op" (fun () ->
                Spans.span r "ingest" (fun () -> ingest !i);
                Buffer.add_string manifest "tick\n";
                Spans.span r "tick" (fun () -> Monitor.tick m)))
      in
      let c1 = Proc.cpu_s () and g1 = Gc.quick_stat () in
      let s1 = stats () in
      let minor_words, promoted_words, minor_collections, major_collections =
        gc_delta g0 g1
      in
      let pause_ms =
        match pauses with
        | Some ps when traced ->
          Runtime_events.pause ();
          Spans.poll_pauses ps;
          Spans.paused_ms ps
        | _ -> 0.
      in
      ticks :=
        {
          ok = true;
          traced;
          wall_ms;
          events = arriving.events;
          cpu_s = c1 -. c0;
          domains = 1;
          rss_mb = Proc.peak_rss_mb ();
          minor_words;
          promoted_words;
          minor_collections;
          major_collections;
          pause_ms;
          lost_events = Option.fold ~none:0 ~some:(fun ps -> !(ps.Spans.lost)) pauses;
          spans = Spans.spans r;
          out_bytes = 0;
          snap = Some (stats_delta s0 s1, 0);
          alerts = List.length alerts;
        }
        :: !ticks;
      incr i;
      incr n
    done
  end;
  Monitor.close m;
  Proc.write_file (manifest_path dir) (Buffer.contents manifest);
  { fill_ms; ticks = List.rev !ticks }

(* --- metrics --- *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Spans.json_string name)
          (fmt_float (if Float.is_finite value then value else 0.))
          (Spans.json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed (String.concat "," m)

let med f ops = Proc.median (List.map f ops)

let end_to_end ~setup_s ops =
  let walls = List.map (fun o -> o.wall_ms) ops in
  let p50 = Proc.median walls in
  let tail, pct = Proc.tail walls in
  Printf.printf "# ops: %d timed, tail = p%.1f; ms: %s\n" (List.length ops) pct
    (String.concat " " (List.map (Printf.sprintf "%.0f") walls));
  [
    ( "events_per_s",
      med (fun o -> float_of_int o.events /. (o.wall_ms /. 1000.)) ops,
      "events/s" );
    ("tick_ms_p50", p50, "ms");
    ("tick_ms_tail", tail, "ms");
    ("peak_rss_mb", med (fun o -> o.rss_mb) ops, "MB");
    ("setup_s", setup_s, "s");
  ]

let per_layer ~fail_ratio ~plain ~traced =
  let med f = med f traced in
  let ms name = med (fun o -> fst (Spans.totals o.spans name)) in
  let words name = med (fun o -> snd (Spans.totals o.spans name)) in
  let layer name =
    [ (name ^ ".ms", ms name, "ms"); (name ^ ".minor_words", words name, "words") ]
  in
  (* In monitor_tick the decode is the ingest of the arriving file. *)
  let decode f = f "decode" +. f "ingest" in
  let snap f = med (fun o -> Option.fold ~none:0. ~some:f o.snap) in
  let hit_ratio hits misses =
    let total f =
      List.fold_left
        (fun acc o -> acc + Option.fold ~none:0 ~some:(fun (s, _) -> f s) o.snap)
        0 traced
    in
    let h = total hits and m = total misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  (* Per event, because monitor ticks differ in the size of the file
     that arrives; report ops all process the same corpus. *)
  let overhead =
    let ms_per_event ops =
      Proc.median (List.map (fun o -> o.wall_ms /. float_of_int o.events) ops)
    in
    100. *. ((ms_per_event traced /. ms_per_event plain) -. 1.)
  in
  let count f = med (fun o -> float_of_int (f o)) in
  List.concat
    [
      [
        ("decode.ms", decode ms, "ms");
        ("decode.minor_words", decode words, "words");
      ];
      layer "impact";
      layer "scenarios";
      List.map (fun n -> (n ^ ".ms", ms n, "ms")) scn_names;
      layer "modules";
      [
        ("render.ms", ms "render", "ms");
        ("render.bytes", count (fun o -> o.out_bytes), "bytes");
        ("snapshot.load_ms", ms "snapshot.load", "ms");
        ("snapshot.ensure_ms", ms "snapshot.ensure", "ms");
        ("snapshot.save_ms", ms "snapshot.save", "ms");
        ("snapshot.bytes", snap (fun (_, b) -> float_of_int b), "bytes");
        ( "snapshot.hit_ratio",
          hit_ratio (fun s -> s.Snapshot.s_hits) (fun s -> s.Snapshot.s_misses),
          "ratio" );
        ( "snapshot.mining_hit_ratio",
          hit_ratio
            (fun s -> s.Snapshot.s_mining_hits)
            (fun s -> s.Snapshot.s_mining_misses),
          "ratio" );
        ( "gc.minor_words_per_event",
          med (fun o -> o.minor_words /. float_of_int o.events),
          "words/event" );
        ("gc.promoted_words", med (fun o -> o.promoted_words), "words");
        ("gc.minor_collections", count (fun o -> o.minor_collections), "count");
        ("gc.major_collections", count (fun o -> o.major_collections), "count");
        ("gc.pause_ms", med (fun o -> o.pause_ms), "ms");
        ("proc.cpu_s", med (fun o -> o.cpu_s), "s");
        ( "proc.cpu_util",
          med (fun o ->
              o.cpu_s /. (o.wall_ms /. 1000. *. float_of_int o.domains)),
          "ratio" );
        ("ingest.ms", ms "ingest", "ms");
        ("tick.ms", ms "tick", "ms");
        ( "tick.misses",
          snap (fun (s, _) -> float_of_int s.Snapshot.s_misses),
          "count" );
        ( "tick.alerts",
          float_of_int
            (List.fold_left (fun acc o -> acc + o.alerts) 0 (plain @ traced)),
          "count" );
        ( "unattributed_pct",
          Proc.median
            (List.concat_map (fun o -> Spans.unattributed_pct o.spans) traced),
          "%" );
        ("trace_overhead_pct", overhead, "%");
        ("fail_ratio", fail_ratio, "ratio");
      ];
    ]

(* --- driving a workload --- *)

type outcome = {
  setup_s : float;
  input : input;
  ops : op list;  (** Ops that ran to the end, checked or not. *)
  attempted : int;
  failed : int;  (** Raised, or output differs from the reference. *)
}

(* A set-up that fails leaves nothing to time: the run ends without a
   result. *)
exception Fatal of string

let fatal fmt = Printf.ksprintf (fun msg -> raise (Fatal msg)) fmt

let report_workload a dir =
  let p = report_paths dir in
  let setups =
    List.init setup_reps (fun _ ->
        match Proc.time_ms (fun () -> Proc.in_child (report_setup a p)) with
        | Ok input, ms -> (input, ms)
        | Error msg, _ -> fatal "set-up failed: %s" msg)
  in
  let input = fst (List.hd setups) in
  (* The reference bytes: the CLI's own output on one domain, captured
     after the timed set-ups. *)
  cli a [ "report"; "--json"; "-j"; "1"; "-c"; p.corpus ] ~out:p.reference;
  let reference =
    let r = Proc.read_file p.reference in
    if a.corrupt_reference then r ^ " " else r
  in
  if a.kind = Report_warm && Proc.read_file p.fill <> Proc.read_file p.reference
  then fatal "the cold --cache fill differs from the reference";
  let min_ops = if a.trace then 4 else 3 in
  let t0 = Proc.now_ns () in
  let rec loop index acc =
    let elapsed_ms = Proc.ms_between t0 (Proc.now_ns ()) in
    if index >= min_ops && elapsed_ms >= a.seconds *. 1000. then List.rev acc
    else
      let traced = a.trace && index mod 2 = 1 in
      loop (index + 1)
        (Proc.in_child (report_op a p ~input ~reference ~traced ~index) :: acc)
  in
  let results = loop 0 [] in
  let ops = List.filter_map Result.to_option results in
  List.iter
    (function Error msg -> prerr_endline ("op failed: " ^ msg) | Ok _ -> ())
    results;
  {
    setup_s = Proc.median (List.map (fun (_, ms) -> ms /. 1000.) setups);
    input;
    ops;
    attempted = List.length results;
    failed = List.length results - List.length (List.filter (fun o -> o.ok) ops);
  }

let monitor_workload a dir =
  let setup ~loop =
    let gen () =
      Proc.rm_rf dir;
      Proc.mkdir_p dir;
      List.init monitor_window (fun i -> gen_monitor_file a dir i ())
    in
    let inputs, gen_ms =
      match Proc.time_ms (fun () -> Proc.in_child gen) with
      | Ok inputs, ms -> (inputs, ms)
      | Error msg, _ -> fatal "generating the window failed: %s" msg
    in
    match Proc.in_child (monitor_process a dir ~loop) with
    | Ok run -> (inputs, (gen_ms +. run.fill_ms) /. 1000., run)
    | Error msg -> fatal "monitor failed: %s" msg
  in
  let reps = List.init setup_reps (fun i -> setup ~loop:(i = setup_reps - 1)) in
  let inputs, _, run = List.nth reps (setup_reps - 1) in
  let input =
    List.fold_left
      (fun acc i ->
        {
          streams = acc.streams + i.streams;
          events = acc.events + i.events;
          bytes = acc.bytes + i.bytes;
        })
      { streams = 0; events = 0; bytes = 0 }
      inputs
  in
  (* The check: replaying the arrival manifest in a fresh process must
     give the timed loop's alert log and exposition byte for byte. *)
  let replayed =
    Proc.in_child (fun () ->
        ignore
          (Monitor.replay (monitor_config dir "replay")
             ~manifest:(manifest_path dir)
            : Monitor.replay_summary))
  in
  let same ext =
    let r = Proc.read_file (Filename.concat dir ("replay" ^ ext)) in
    let r = if a.corrupt_reference then r ^ " " else r in
    Proc.read_file (Filename.concat dir ("loop" ^ ext)) = r
  in
  let ok =
    match replayed with
    | Ok () -> same ".jsonl" && same ".om"
    | Error msg ->
      prerr_endline ("replay failed: " ^ msg);
      false
  in
  (* The store keeps every stream it has seen, so the monitor's resident
     set grows with the ticks run. Its peak is taken once the window has
     turned over, after a fixed amount of work, not at the end. *)
  let rss_mb = (List.nth run.ticks (monitor_window - 1)).rss_mb in
  let ops = List.map (fun o -> { o with ok; rss_mb }) run.ticks in
  {
    setup_s = Proc.median (List.map (fun (_, s, _) -> s) reps);
    input;
    ops;
    attempted = List.length ops;
    failed = (if ok then 0 else List.length ops);
  }

let () =
  let a = parse_args () in
  let root = "_drivebench" in
  let dir =
    Filename.concat root (Printf.sprintf "%s-%d-%d" a.name a.seed (Unix.getpid ()))
  in
  Proc.mkdir_p dir;
  let outcome =
    match
      Fun.protect ~finally:(fun () -> Proc.rm_rf dir) @@ fun () ->
      match a.kind with
      | Monitor_tick -> monitor_workload a dir
      | Report_seq | Report_par | Report_warm -> report_workload a dir
    with
    | outcome -> outcome
    | exception Fatal msg ->
      prerr_endline ("bench.exe: " ^ msg);
      exit 1
  in
  Printf.printf "# %s: %s\n" a.name a.why;
  Printf.printf "# input (seed %d): %d streams, %d events, %d bytes%s\n" a.seed
    outcome.input.streams outcome.input.events outcome.input.bytes
    (if a.kind = Monitor_tick then " in the window; one arriving file per tick"
     else "");
  let fail_ratio =
    float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted)
  in
  let metrics =
    if not a.trace then end_to_end ~setup_s:outcome.setup_s outcome.ops
    else begin
      let traced = List.filter (fun o -> o.traced) outcome.ops in
      let plain = List.filter (fun o -> not o.traced) outcome.ops in
      let trace_dir = Filename.concat root "traces" in
      Proc.mkdir_p trace_dir;
      let path =
        Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" a.name a.seed)
      in
      Spans.write_chrome_trace path (List.concat_map (fun o -> o.spans) traced);
      Printf.printf "# trace: %s (%d traced ops, %d plain, %d runtime events lost)\n"
        path (List.length traced) (List.length plain)
        (List.fold_left (fun acc o -> max acc o.lost_events) 0 traced);
      per_layer ~fail_ratio ~plain ~traced
    end
  in
  print_result ~correct:(outcome.failed = 0) ~attempted:outcome.attempted
    ~failed:outcome.failed metrics
