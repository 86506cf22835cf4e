(* Process plumbing for the benchmark: clocks, forked children, the CLI,
   files, and the order statistics the metrics are made of.

   The coordinator process never starts a domain (OCaml 5 refuses to
   fork once one was created), so every op, set-up step and replay runs
   in a child forked from a process with the state a fresh CLI has. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

(* Run [f] in a forked child and return its result, marshalled back over
   a pipe. An exception in the child, or a child that dies without
   answering, comes back as [Error]. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    (try
       Marshal.to_channel oc (r : ('a, string) result) [];
       close_out oc
     with _ -> ());
    flush_all ();
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      match (Marshal.from_channel ic : ('a, string) result) with
      | r -> r
      | exception End_of_file -> Error "child exited without a result"
    in
    close_in ic;
    let rec wait () =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> r
      | _, Unix.WEXITED c -> Error (Printf.sprintf "child exited with %d" c)
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "child killed by signal %d" s)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()

(* Run the driveperf CLI with stdout sent to [stdout_file]; stderr stays
   ours. Returns the exit code. *)
let run_cli ~exe ~stdout_file args =
  flush_all ();
  let out =
    Unix.openfile stdout_file [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out Unix.stderr
  in
  Unix.close out;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* --- files --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc s

let file_size path = (Unix.stat path).Unix.st_size

(* Total size of the files in [dir] whose names end in [ext]. *)
let file_size_in_dir dir ext =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ext then acc + file_size (Filename.concat dir f)
      else acc)
    0 (Sys.readdir dir)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- process accounting --- *)

(* Peak resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
    | kb -> float_of_int kb /. 1024.
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ()
  in
  find ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- order statistics --- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail, as [(value, percentile)]: the value at the highest
   percentile that still has at least 10 samples beyond it, but never
   below the upper quartile. Below 40 samples the rule's percentile falls
   under p75 (under the median below 21), and the maximum of so few
   samples mostly measures one disturbance, so p75 stands in.
   Percentiles are nearest-rank. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 100.)
  else
    let q3 = int_of_float (Float.ceil (0.75 *. float_of_int n)) - 1 in
    let i = max q3 (n - 11) in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)
