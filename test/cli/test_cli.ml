(* User errors on the command line must end in a message and a nonzero
   exit code, never in an uncaught exception (which cmdliner reports as
   an internal error with exit code 125). Usage: test_cli DRIVEPERF. *)

let driveperf =
  if Array.length Sys.argv < 2 then failwith "usage: test_cli DRIVEPERF"
  else
    let exe = Sys.argv.(1) in
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe

let dir = Filename.temp_dir "driveperf_cli" ""

let () =
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
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
        ] );
    ]
