(* tune-search: cold [Tune.run] with the default spec on cache2, no
   store. One operation is one tuning query over one kernel. The kernel
   sizes are fixed, so the quality metric does not depend on the seed;
   the seed orders the queries. The traced pass reads the search's own
   spans and counters; nothing here re-enacts it. *)

module Tune = Locality_stats.Tune
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine
module Analytic = Locality_analytic.Analytic
module Kernels = Locality_suite.Kernels

let queries =
  [
    ("matmul", 48); ("matmul_chain", 24); ("conv2d", 24); ("attention", 24);
    ("jacobi2d", 48); ("lu", 48); ("cholesky", 48);
  ]

let program (name, n) = (List.assoc name Kernels.all) n

let op ~jobs ((name, n) as q) =
  Tune.run ~n ~machine:Machine.cache2 ~store:None ~jobs ~name (program q)

let winner_miss (r : Tune.result) =
  Option.bind r.Tune.t_winner (fun (w : Tune.row) -> w.Tune.simulated_miss)

(* The winner's exact miss above the better of the original and the
   paper's memory order, in percentage points; 0 when it is no worse. *)
let regret (r : Tune.result) =
  match winner_miss r with
  | None -> 0.0
  | Some w ->
    Float.max 0.0
      (w -. Float.min r.Tune.t_baseline_miss r.Tune.t_memorder_miss)

let mean_regret results = Util.mean (List.map regret results)

let row_tag (w : Tune.row) =
  let f = function None -> "-" | Some x -> Printf.sprintf "%h" x in
  Printf.sprintf "%s:%s:%s:%s" w.Tune.enc
    (match w.Tune.status with
    | Tune.Illegal -> "I"
    | Tune.Screened -> "S"
    | Tune.Confirmed -> "C")
    (f w.Tune.analytic_miss) (f w.Tune.simulated_miss)

let fingerprint (r : Tune.result) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d|%d|%d|%h|%h|%s|%s" r.Tune.t_name
          r.Tune.t_generated r.Tune.t_pruned r.Tune.t_screened
          r.Tune.t_confirmed r.Tune.t_truncated r.Tune.t_baseline_miss
          r.Tune.t_memorder_miss
          (match r.Tune.t_winner with Some w -> row_tag w | None -> "-")
          (String.concat "," (List.map row_tag r.Tune.t_rows))))

let miss_of (r : Measure.run) =
  let w = r.Measure.whole in
  if w.Measure.accesses = 0 then 0.0
  else
    100.0
    *. float_of_int (w.Measure.accesses - w.Measure.hits)
    /. float_of_int w.Measure.accesses

(* The winner re-simulated with an exact capture and replay of our own. *)
let resimulate (r : Tune.result) =
  let cap = Measure.capture ~mode:Measure.Runs ~store:None r.Tune.t_winner_program in
  Measure.replay ~config:Machine.cache2 ~timing:Machine.default_timing ~store:None cap

(* Oracle: the winner's re-simulated miss is exactly the one the tuner
   reported. *)
let check_winner (r : Tune.result) =
  match winner_miss r with
  | None -> Util.fail "tune-search %s: no winner" r.Tune.t_name
  | Some reported ->
    let miss = miss_of (resimulate r) in
    if miss <> reported then
      Util.fail "tune-search %s: winner re-simulates to %h, tuner said %h"
        r.Tune.t_name miss reported

(* ------------------------------------------------------- traced pass *)

(* Accesses [Analytic.estimate] counts on the winner, and accesses its
   exact re-simulation counts. *)
let access_counts (r : Tune.result) =
  let estimated =
    match Analytic.estimate ~config:Machine.cache2 r.Tune.t_winner_program with
    | Ok e -> e.Analytic.e_whole.Analytic.c_accesses
    | Error _ -> 0
  in
  (estimated, (resimulate r).Measure.whole.Measure.accesses)

(* Confirmed finalists at or below the paper's memory order. *)
let useful (r : Tune.result) =
  List.length
    (List.filter
       (fun (w : Tune.row) ->
         w.Tune.status = Tune.Confirmed
         && match w.Tune.simulated_miss with
            | Some m -> m <= r.Tune.t_memorder_miss
            | None -> false)
       r.Tune.t_rows)
