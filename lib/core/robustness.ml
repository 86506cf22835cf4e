type ci = { point : float; mean : float; lo : float; hi : float }

type t = {
  ia_wait : ci;
  ia_run : ci;
  ia_opt : ci;
  propagation_ratio : ci;
  replicates : int;
}

let merge_all = List.fold_left Impact.merge Impact.empty

let ci_of point samples =
  {
    point;
    mean = Dputil.Stats.mean samples;
    lo = Dputil.Stats.percentile samples 2.5;
    hi = Dputil.Stats.percentile samples 97.5;
  }

let bootstrap ?(replicates = 200) ?(seed = 1) partials =
  if replicates < 1 then
    invalid_arg
      (Printf.sprintf "Robustness.bootstrap: replicates %d < 1" replicates);
  let per_stream = Array.of_list partials in
  let n = Array.length per_stream in
  let full = merge_all partials in
  let prng = Dputil.Prng.of_int seed in
  let samples_wait = Array.make replicates 0.0 in
  let samples_run = Array.make replicates 0.0 in
  let samples_opt = Array.make replicates 0.0 in
  let samples_ratio = Array.make replicates 0.0 in
  for b = 0 to replicates - 1 do
    let resampled =
      if n = 0 then []
      else List.init n (fun _ -> per_stream.(Dputil.Prng.int prng n))
    in
    let r = merge_all resampled in
    samples_wait.(b) <- Impact.ia_wait r;
    samples_run.(b) <- Impact.ia_run r;
    samples_opt.(b) <- Impact.ia_opt r;
    samples_ratio.(b) <- Impact.propagation_ratio r
  done;
  {
    ia_wait = ci_of (Impact.ia_wait full) samples_wait;
    ia_run = ci_of (Impact.ia_run full) samples_run;
    ia_opt = ci_of (Impact.ia_opt full) samples_opt;
    propagation_ratio = ci_of (Impact.propagation_ratio full) samples_ratio;
    replicates;
  }

let contains ci v = ci.lo <= v && v <= ci.hi

let pp_ci_pct fmt ci =
  Format.fprintf fmt "%.1f%% [%.1f%%, %.1f%%]" (100.0 *. ci.point)
    (100.0 *. ci.lo) (100.0 *. ci.hi)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>IA_wait = %a@,IA_run  = %a@,IA_opt  = %a@,ratio   = %.2f [%.2f, \
     %.2f]@,(%d bootstrap replicates over streams)@]"
    pp_ci_pct t.ia_wait pp_ci_pct t.ia_run pp_ci_pct t.ia_opt
    t.propagation_ratio.point t.propagation_ratio.lo t.propagation_ratio.hi
    t.replicates
