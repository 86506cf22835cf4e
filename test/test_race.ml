(* Domain-safety stress test for module-level globals reached by pool
   workers. OCaml 5 [Lazy] is not domain-safe: two domains forcing the
   same unforced lazy at once raise [CamlinternalLazy.Undefined]. A lazy
   is forced once per process, so each round runs in a fresh child,
   forked before this process has started any domain: the child turns
   spans and metrics on, runs a 2-domain [Pipeline.run_all], and exits
   0 on success or 1 on any exception. *)

let rounds = 200

let corpus =
  Dpworkload.Corpus_gen.generate
    { (Dpworkload.Corpus_gen.scaled 0.03) with seed = 11 }

let child () =
  Dpobs.enable ();
  match
    Dppar.Pool.with_pool ~domains:2 (fun pool ->
        Dpcore.Pipeline.run_all ~pool Dpcore.Component.drivers corpus)
  with
  | results -> Unix._exit (if results = [] then 2 else 0)
  | exception e ->
    prerr_endline ("round failed: " ^ Printexc.to_string e);
    Unix._exit 1

let run_round () =
  flush_all ();
  match Unix.fork () with
  | 0 -> child ()
  | pid -> (
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> true
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> false)

let test_pooled_run_all_with_telemetry () =
  let failed = ref 0 in
  for _ = 1 to rounds do
    if not (run_round ()) then incr failed
  done;
  Alcotest.(check int)
    (Printf.sprintf "rounds that raised, of %d" rounds)
    0 !failed

let () =
  Alcotest.run "race"
    [
      ( "telemetry-on pool",
        [
          Alcotest.test_case "2-domain run_all, fresh process per round" `Slow
            test_pooled_run_all_with_telemetry;
        ] );
    ]
