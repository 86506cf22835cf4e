(* User errors on the command line must end in a message and a nonzero
   exit code, never in an uncaught exception (which cmdliner reports as
   an internal error with exit code 125). The analysis commands must also
   print the same bytes whatever the domain count, telemetry and cache
   settings. Usage: test_cli DRIVEPERF. *)

let driveperf =
  if Array.length Sys.argv < 2 then failwith "usage: test_cli DRIVEPERF"
  else
    let exe = Sys.argv.(1) in
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe

let dir = Filename.temp_dir "driveperf_cli" ""

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () = at_exit (fun () -> remove dir)
let corpus = Filename.concat dir "c.dpf"

let generated =
  Dpworkload.Corpus_gen.generate
    { (Dpworkload.Corpus_gen.scaled 0.02) with seed = 5 }

let () = Dptrace.Codec_v2.save corpus generated

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run driveperf with [args]; return (exit code, stdout, stderr). *)
let run args =
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Filename.quote_command driveperf ~stdout:out ~stderr:err args)
  in
  (code, read out, read err)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expect_failure ~code ~message args () =
  let got, _, err = run args in
  Alcotest.(check int) "exit code" code got;
  if not (contains err message) then
    Alcotest.failf "stderr lacks %S:\n%s" message err

let unknown_scenario sub =
  Alcotest.test_case sub `Quick
    (expect_failure ~code:1 ~message:"unknown scenario NoSuchScenario"
       [ sub; "NoSuchScenario"; "-c"; corpus ])

let known_scenario () =
  let name = List.hd (Dptrace.Corpus.scenario_names generated) in
  let code, out, _ = run [ "causality"; name; "-c"; corpus; "--top"; "1" ] in
  Alcotest.(check int) "exit code" 0 code;
  if not (contains out ("scenario " ^ name)) then
    Alcotest.failf "unexpected output:\n%s" out

(* A path under a missing directory cannot be written: exit 1 with the
   system's message, not an uncaught [Sys_error]. *)
let missing = Filename.concat dir "missing/sub"

let unwritable name args =
  Alcotest.test_case name `Quick
    (expect_failure ~code:1 ~message:"No such file or directory" args)

(* A replay manifest for the monitor's option checks: one file, one
   tick. *)
let manifest =
  let path = Filename.concat dir "replay.manifest" in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "clock 0\nadd %s\ntick\n" corpus);
  path

(* --- stress matrix ---

   Every analysis command, run at -j 1 and -j 4, with telemetry off and
   on (--trace-out/--metrics-out), and for the commands that take
   --cache also with a cold and then a warm cache, must print exactly
   what the plain -j 1 run prints. *)

let scenario = List.hd (Dptrace.Corpus.scenario_names generated)

(* (name, arguments, takes --cache) *)
let matrix_commands =
  [
    ("impact", [ "impact"; "--by-module"; "--per-scenario" ], true);
    ("report", [ "report" ], true);
    ("report --json", [ "report"; "--json" ], true);
    ("analyze", [ "analyze" ], true);
    ("analyze --json", [ "analyze"; "--json" ], true);
    ("causality", [ "causality"; scenario ], false);
    ("explain", [ "explain"; scenario ], false);
    ("flame", [ "flame"; scenario; "-o"; Filename.concat dir "views" ], false);
  ]

let fresh_cache =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat dir (Printf.sprintf "cache%d" !n)

let stress (name, args, cached) =
  Alcotest.test_case name `Quick @@ fun () ->
  let run_ok extra =
    let code, out, err = run (args @ [ "-c"; corpus ] @ extra) in
    if code <> 0 then
      Alcotest.failf "%s %s: exit %d\n%s" name (String.concat " " extra) code
        err;
    out
  in
  let reference = run_ok [ "-j"; "1" ] in
  let telemetry =
    [
      [];
      [
        "--trace-out"; Filename.concat dir "trace.json";
        "--metrics-out"; Filename.concat dir "metrics.json";
      ];
    ]
  in
  let mismatches = ref [] in
  List.iter
    (fun j ->
      List.iter
        (fun tel ->
          let check ?(note = "") extra =
            let extra = [ "-j"; j ] @ tel @ extra in
            if run_ok extra <> reference then
              mismatches := (String.concat " " extra ^ note) :: !mismatches
          in
          check [];
          if cached then begin
            let cache = [ "--cache"; fresh_cache () ] in
            check ~note:" (cold)" cache;
            check ~note:" (warm)" cache
          end)
        telemetry)
    [ "1"; "4" ];
  match !mismatches with
  | [] -> ()
  | ms ->
    Alcotest.failf "%s: output differs from the plain -j 1 run under:\n%s" name
      (String.concat "\n" (List.rev ms))

(* Alcotest parses the command line too; leave it only the program name. *)
let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "unknown scenario",
        List.map unknown_scenario
          [ "causality"; "dot"; "witness"; "explain"; "export-trace"; "flame" ]
        @ [
            Alcotest.test_case "diff" `Quick
              (expect_failure ~code:1 ~message:"unknown scenario NoSuchScenario"
                 [ "diff"; corpus; corpus; "NoSuchScenario" ]);
            Alcotest.test_case "known scenario still runs" `Quick known_scenario;
          ] );
      ( "out-of-range integers",
        [
          Alcotest.test_case "witness --rank 0" `Quick
            (expect_failure ~code:124 ~message:"expected an integer >= 1"
               [ "witness"; "X"; "--rank"; "0"; "-c"; corpus ]);
          Alcotest.test_case "export-trace --rank 0" `Quick
            (expect_failure ~code:124 ~message:"expected an integer >= 1"
               [ "export-trace"; "X"; "--rank"; "0"; "-c"; corpus ]);
          Alcotest.test_case "timeline --instance -1" `Quick
            (expect_failure ~code:124 ~message:"expected an integer >= 0"
               [ "timeline"; "0"; "--instance=-1"; "-c"; corpus ]);
          Alcotest.test_case "timeline --width 0" `Quick
            (expect_failure ~code:124 ~message:"expected an integer >= 1"
               [ "timeline"; "0"; "--width"; "0"; "-c"; corpus ]);
          Alcotest.test_case "causality -k 0" `Quick
            (expect_failure ~code:124 ~message:"expected an integer >= 1"
               [ "causality"; scenario; "-k"; "0"; "-c"; corpus ]);
        ]
        @ List.map
            (fun (opt, value) ->
              Alcotest.test_case (Printf.sprintf "monitor %s=%s" opt value)
                `Quick
                (expect_failure ~code:124
                   ~message:(Printf.sprintf "'%s': invalid value" opt)
                   [ "monitor"; opt ^ "=" ^ value; "--replay"; manifest ]))
            [
              ("--replicates", "-1");
              ("--replicates", "0");
              ("--window", "0");
              ("--window", "-1");
              ("--top-patterns", "-1");
            ] );
      ( "unwritable paths",
        [
          unwritable "generate -o"
            [ "generate"; "--scale"; "0.01"; "-o"; Filename.concat missing "x.dpf" ];
          unwritable "convert" [ "convert"; corpus; Filename.concat missing "y.dpf" ];
          unwritable "analyze -o"
            [ "analyze"; "-c"; corpus; "-o"; Filename.concat missing "r.md" ];
          unwritable "report --cache" [ "report"; "-c"; corpus; "--cache"; missing ];
        ] );
      ("stress matrix", List.map stress matrix_commands);
    ]
