(* The memoria benchmark harness. One invocation runs one workload for a
   given seed and prints, as its last line, one JSON object with the
   result: end-to-end metrics with --trace 0, per-layer metrics from a
   separate traced pass with --trace 1. perfbench/run.py builds this
   program and calls it; see there for the command line.

   Every workload also computes the two deterministic quality metrics
   from fixed reference sets, outside the timed region: the modelled
   speedup of compound over the 35 suite programs on cache1 and cache2,
   and the tuner's regret over the tune-search kernels. On the workload
   that exercises them they must equal what the timed operations
   produced, and at jobs=1 they must equal jobs=nproc. *)

module Programs = Locality_suite.Programs
module Tune = Locality_stats.Tune
module Pool = Locality_par.Pool

let workloads = [ "paper-exact"; "tune-search"; "serve-mix" ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_p99_ms", "ms"); ("cpu_per_op_ms", "ms"); ("peak_rss_mb", "MB");
    ("opt_speedup_geomean", "x"); ("tune_regret_pp", "pp");
  ]

let per_layer =
  [
    ("lang.parse_ms", "ms"); ("lang.bytes", "B");
    ("dep.self_ms", "ms"); ("dep.nests", "count");
    ("core.compound_ms", "ms"); ("core.nests", "count");
    ("core.nests_changed", "count"); ("core.changed_share", "ratio");
    ("core.candidate_apply_ms", "ms");
    ("interp.capture_ms", "ms"); ("interp.accesses", "count");
    ("interp.ns_per_access", "ns"); ("interp.minor_words_per_access", "words");
    ("cachesim.replay_ms", "ms"); ("cachesim.accesses", "count");
    ("cachesim.ns_per_access", "ns");
    ("analytic.estimate_ms", "ms"); ("analytic.nests", "count");
    ("analytic.exact_share", "ratio"); ("analytic.fallback_share", "ratio");
    ("analytic.access_count_ratio", "ratio");
    ("tune.generated", "count"); ("tune.pruned_illegal", "count");
    ("tune.screened", "count"); ("tune.confirmed", "count");
    ("tune.screen_ms", "ms"); ("tune.confirm_ms", "ms");
    ("tune.confirm_useful_share", "ratio");
    ("store.get_ms", "ms"); ("store.put_ms", "ms"); ("store.hit_rate", "ratio");
    ("store.bytes_read", "B"); ("store.bytes_written", "B");
    ("driver.request_decode_us", "us"); ("driver.response_encode_us", "us");
    ("serve.overhead_ms", "ms");
    ("par.speedup", "x"); ("par.cpu_utilisation", "ratio");
    ("serve.repeat_p50_ms", "ms"); ("serve.fresh_p50_ms", "ms");
    ("serve.text_p50_ms", "ms"); ("serve.tune_p50_ms", "ms");
    ("serve.malformed_p50_ms", "ms");
    ("obs.metrics_overhead_pct", "%"); ("obs.rss_growth_kb_per_req", "kB");
    ("trace.overhead_ms", "ms"); ("trace.overhead_pct", "%");
  ]

(* ------------------------------------------------------ command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let jobs = ref (Util.nproc ())
let memoria = ref "_build/default/bin/memoria.exe"
let work = ref "_perfbench"
let list = ref false
let setup_only = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced (1) run");
      ("--jobs", Arg.Set_int jobs, "N domains, threads and connections");
      ("--memoria", Arg.Set_string memoria, "PATH the memoria binary");
      ("--work", Arg.Set_string work, "DIR scratch directory (stores, traces)");
      ("--list", Arg.Set list, " print workload and metric names, then exit");
      ("--setup-only", Arg.Set setup_only, " build the workload's programs and pool, then exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --seconds S --trace 0|1"

let names_json l =
  "[" ^ String.concat "," (List.map (fun (n, u) -> Printf.sprintf "[%S,%S]" n u) l) ^ "]"

(* ------------------------------------------------------- references *)

let paper_reference ~jobs =
  let outcomes = List.map fst (Paper.pass ~jobs Programs.all) in
  let refs = Paper.references ~jobs outcomes in
  (Paper.fingerprint outcomes, Paper.speedup_geomean refs, refs)

let tune_results ~jobs qs =
  List.map
    (fun q ->
      match Tunes.op ~jobs q with
      | Ok r -> r
      | Error e -> failwith ("tune-search reference: " ^ e))
    qs

let tune_reference ~jobs =
  let rs = tune_results ~jobs Tunes.queries in
  (List.map Tunes.fingerprint rs, Tunes.mean_regret rs, rs)

(* ---------------------------------------------------------- results *)

let provenance = ref []
let prov k v = provenance := (k, v) :: !provenance

let percentiles lat =
  let n = List.length lat in
  let rank99 = int_of_float (ceil (0.99 *. float_of_int n)) in
  prov "op_samples" (string_of_int n);
  prov "op_p99_beyond" (string_of_int (n - rank99));
  (Util.percentile 50.0 lat, Util.percentile 99.0 lat)

let seeded_sample rng k l =
  let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
  take k (Util.shuffle rng l)

(* ------------------------------------------------------- end to end *)

(* What a workload builds before its first operation: its programs and
   a pool of [jobs] domains. *)
let setup_work ~jobs =
  (match !workload with
  | "paper-exact" ->
    ignore (List.map (fun e -> Programs.program_of e) Programs.all)
  | _ -> ignore (List.map Tunes.program Tunes.queries));
  ignore (Pool.map ~jobs Fun.id (List.init jobs Fun.id))

(* Set-up as a command-line user pays it: a process starts, builds the
   workload's programs, spawns the pool and exits. One sample is timed
   from spawn to exit. The host's speed drifts over seconds, so the
   samples are spread over the run: 21 before the timed region and two
   after each pass (outside the pass's own timing); setup_s is their
   median. *)
let setup_once ~jobs =
  let t0 = Util.now_ns () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--setup-only"; "--workload"; !workload; "--jobs"; string_of_int jobs |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Util.s_since t0
  | _ -> failwith "set-up process failed"

let setup_samples ~jobs = ref (List.init 21 (fun _ -> setup_once ~jobs))
let more_setup ~jobs samples = samples := setup_once ~jobs :: setup_once ~jobs :: !samples

(* The timed passes run on one domain. At jobs = nproc every minor
   collection stops all domains, so a moment's preemption of any vCPU
   stalls the whole pass, and on a shared host the timings follow the
   neighbours more than the code. The reference pass at jobs = nproc
   runs first, untimed, as the warm-up, and every timed pass must
   reproduce it exactly. *)
let paper_exact rng =
  let nproc = !jobs and jobs = 1 in
  prov "timed_jobs" (string_of_int jobs);
  let ref_print, geomean_n, _ = paper_reference ~jobs:nproc in
  let setups = setup_samples ~jobs in
  let lat = ref [] and prints = ref [] and ops = ref 0 and first = ref [] in
  let passes = ref [] in
  let t0 = Util.now_ns () in
  while Util.s_since t0 < !seconds do
    let tp = Util.now_ns () and cp = Util.self_cpu_s () in
    let results = Paper.pass ~jobs Programs.all in
    let n = float_of_int (List.length results) in
    passes := (n /. Util.s_since tp, (Util.self_cpu_s () -. cp) *. 1000.0 /. n) :: !passes;
    more_setup ~jobs setups;
    List.iter (fun (_, ms) -> lat := ms :: !lat) results;
    ops := !ops + List.length Programs.all;
    let outcomes = List.map fst results in
    if !first = [] then first := outcomes;
    prints := Paper.fingerprint outcomes :: !prints
  done;
  let peak = Util.peak_rss_mb "self" in
  (* Untimed: determinism, oracles, reference metrics. *)
  List.iter (Util.must_repeat "paper-exact pass fingerprint (jobs=1 vs jobs=nproc)" ref_print) !prints;
  let refs = Paper.references ~jobs:nproc !first in
  let geomean = Paper.speedup_geomean refs in
  Util.must_repeat "opt_speedup_geomean (jobs=1 vs jobs=nproc)"
    (Printf.sprintf "%h" geomean) (Printf.sprintf "%h" geomean_n);
  List.iter Paper.check_hit_rates refs;
  let sample =
    seeded_sample rng 3 (List.filter (fun (r : Paper.reference) -> r.Paper.measured <> []) refs)
  in
  prov "oracle_sample"
    (String.concat "," (List.map (fun (r : Paper.reference) -> Paper.name r.Paper.outcome) sample));
  List.iter (fun r -> Paper.check_per_access r; Paper.check_semantics r) sample;
  let _, regret, _ = tune_reference ~jobs:nproc in
  let p50, p99 = percentiles !lat in
  ( !ops,
    [
      ("setup_s", Util.median !setups);
      ("ops_per_s", Util.median (List.map fst !passes));
      ("op_p50_ms", p50); ("op_p99_ms", p99);
      ("cpu_per_op_ms", Util.median (List.map snd !passes));
      ("peak_rss_mb", peak); ("opt_speedup_geomean", geomean);
      ("tune_regret_pp", regret);
    ] )

(* Timed on one domain, like paper-exact, after the untimed reference
   at jobs = nproc, whose answers every timed query must repeat. *)
let tune_search rng =
  let nproc = !jobs and jobs = 1 in
  prov "timed_jobs" (string_of_int jobs);
  let ref_prints, regret, results = tune_reference ~jobs:nproc in
  let setups = setup_samples ~jobs in
  let lat = ref [] and ops = ref 0 and seen = Hashtbl.create 8 in
  let passes = ref [] in
  let t0 = Util.now_ns () in
  (* Whole passes only, so every run times the same mix of kernels. *)
  while Util.s_since t0 < !seconds do
    let tp = Util.now_ns () and cp = Util.self_cpu_s () in
    let n = float_of_int (List.length Tunes.queries) in
    List.iter
      (fun ((name, _) as q) ->
        begin
          let t = Util.now_ns () in
          let r = Tunes.op ~jobs q in
          lat := Util.ms_since t :: !lat;
          incr ops;
          match r with
          | Error e -> Util.fail "tune-search %s: %s" name e
          | Ok r -> (
            match Hashtbl.find_opt seen name with
            | None -> Hashtbl.replace seen name (Tunes.fingerprint r)
            | Some fp -> Util.must_repeat ("tune-search " ^ name ^ " between queries") fp (Tunes.fingerprint r))
        end)
      (Util.shuffle rng Tunes.queries);
    passes := (n /. Util.s_since tp, (Util.self_cpu_s () -. cp) *. 1000.0 /. n) :: !passes;
    more_setup ~jobs setups
  done;
  let peak = Util.peak_rss_mb "self" in
  List.iter2
    (fun (name, _) fp ->
      Option.iter
        (fun timed -> Util.must_repeat ("tune-search " ^ name ^ " (jobs=1 vs jobs=nproc)") fp timed)
        (Hashtbl.find_opt seen name))
    Tunes.queries ref_prints;
  List.iter Tunes.check_winner results;
  prov "regret_by_kernel"
    (String.concat ","
       (List.map (fun r -> Printf.sprintf "%s=%.2f" r.Tune.t_name (Tunes.regret r)) results));
  let _, geomean, _ = paper_reference ~jobs:nproc in
  let p50, p99 = percentiles !lat in
  ( !ops,
    [
      ("setup_s", Util.median !setups);
      ("ops_per_s", Util.median (List.map fst !passes));
      ("op_p50_ms", p50); ("op_p99_ms", p99);
      ("cpu_per_op_ms", Util.median (List.map snd !passes));
      ("peak_rss_mb", peak); ("opt_speedup_geomean", geomean);
      ("tune_regret_pp", regret);
    ] )

let serve_mix () =
  let jobs = !jobs in
  let t =
    Serve_mix.run ~memoria:!memoria ~root:"." ~work:!work ~seed:!seed
      ~seconds:!seconds ~jobs
  in
  let ops = List.length t.Serve_mix.served in
  let renamed =
    Serve_mix.check ~jobs (List.map (fun (d, _, r) -> (d, r)) t.Serve_mix.served)
  in
  prov "replies_with_history_dependent_labels" (string_of_int renamed);
  prov "mix_count_p50ms"
    (String.concat ","
       (List.map
          (fun k ->
            let lat = Serve_mix.latencies k t.Serve_mix.served in
            Printf.sprintf "%s=%d/%.3f" (Serve_mix.kind_name k) (List.length lat)
              (Util.median lat))
          Serve_mix.kinds));
  let _, geomean, _ = paper_reference ~jobs in
  let _, regret, _ = tune_reference ~jobs in
  let p50, p99 = percentiles (List.map (fun (_, ms, _) -> ms) t.Serve_mix.served) in
  ( ops,
    [
      ("setup_s", t.Serve_mix.setup_s);
      ("ops_per_s", Util.median t.Serve_mix.window_ops_per_s);
      ("op_p50_ms", p50); ("op_p99_ms", p99);
      ("cpu_per_op_ms", Util.median t.Serve_mix.window_cpu_per_op_ms);
      ("peak_rss_mb", t.Serve_mix.daemon_peak_rss_mb);
      ("opt_speedup_geomean", geomean); ("tune_regret_pp", regret);
    ] )

(* ----------------------------------------------------------- traced *)

module T = Tracing
module Event = Locality_obs.Event
module Obs = Locality_obs.Obs
module Store = Locality_store.Store
module S = Serve_mix
module Request = Locality_driver.Request
module Response = Locality_driver.Response

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ns_per ms n = if n = 0 then 0.0 else ms *. 1e6 /. float_of_int n

(* Layer metrics from the events of a traced pass. Self times come from
   the libraries' spans: "parse" (Lower.parse_program), "dep"
   (Analysis.deps_in_nest), "optimize" and "compound"
   (Compound.run_program), "capture" (the interpreter), "replay" (the
   cache simulator), "analytic" (Analytic.estimate) and Tune's
   "tune.screen" and "tune.confirm"; counts from their counters and
   decision records. The screen's self time is candidate apply and
   legality: its estimates and replays are child spans. *)
let layer_metrics evs =
  let capture_ms = T.self_ms evs [ "capture" ]
  and replay_ms = T.self_ms evs [ "replay" ] in
  let records = T.hist_sum evs "capture.records"
  and accesses = T.counter evs "cache.accesses" in
  let decisions = T.decisions evs in
  let changed =
    List.length
      (List.filter (fun (d : Event.decision) -> d.Event.action <> Event.No_change) decisions)
  in
  let estimates = T.count evs "analytic" in
  [
    ("lang.parse_ms", T.self_ms evs [ "parse" ]);
    ("dep.self_ms", T.self_ms evs [ "dep" ]);
    ("dep.nests", float_of_int (T.count evs "dep"));
    ("core.compound_ms", T.self_ms evs [ "optimize"; "compound" ]);
    ("core.nests", float_of_int (List.length decisions));
    ("core.nests_changed", float_of_int changed);
    ("core.changed_share", share changed (List.length decisions));
    ("core.candidate_apply_ms", T.self_ms evs [ "tune.screen" ]);
    ("interp.capture_ms", capture_ms);
    ("interp.accesses", float_of_int records);
    ("interp.ns_per_access", ns_per capture_ms records);
    ("cachesim.replay_ms", replay_ms);
    ("cachesim.accesses", float_of_int accesses);
    ("cachesim.ns_per_access", ns_per replay_ms accesses);
    ("analytic.estimate_ms", T.self_ms evs [ "analytic" ]);
    ("analytic.nests", float_of_int (T.counter evs "analytic.nests"));
    ("analytic.exact_share", share (T.count ~arg:("exact", "true") evs "analytic") estimates);
    ("analytic.fallback_share", share (T.count ~key:"fallback" evs "analytic") estimates);
    ("tune.generated", float_of_int (T.counter evs "tune.generated"));
    ("tune.pruned_illegal", float_of_int (T.counter evs "tune.pruned_illegal"));
    ("tune.screened", float_of_int (T.counter evs "tune.screened"));
    ("tune.confirmed", float_of_int (T.counter evs "tune.simulated"));
    ("tune.screen_ms", T.total_ms evs "tune.screen");
    ("tune.confirm_ms", T.total_ms evs "tune.confirm");
    ("driver.request_decode_us", T.per_call_ms evs "Request.of_json" *. 1000.0);
    ("driver.response_encode_us", T.per_call_ms evs "Response.to_json" *. 1000.0);
  ]

let timed_ms f =
  let t0 = Util.now_ns () in
  let v = f () in
  (v, Util.ms_since t0)

(* Per-layer values that are a function of the input alone. The store's
   byte counts are not: stored programs carry statement-label names from
   a process-wide counter, so their sizes change from round to round. *)
let deterministic =
  [
    "lang.bytes"; "dep.nests"; "core.nests"; "core.nests_changed";
    "core.changed_share"; "interp.accesses"; "cachesim.accesses";
    "analytic.nests"; "analytic.exact_share"; "analytic.fallback_share";
    "tune.generated"; "tune.pruned_illegal"; "tune.screened";
    "tune.confirmed"; "tune.confirm_useful_share"; "store.hit_rate";
  ]

(* Repeat a traced round until the run's seconds are spent (at least
   once): counts must repeat exactly from round to round, timings are
   reported as the median over rounds. The spans written out are the
   last round's. *)
let rounds round =
  let t0 = Util.now_ns () in
  let rec go acc =
    let acc = round () :: acc in
    if Util.s_since t0 < !seconds then go acc else List.rev acc
  in
  let all = go [] in
  let first = List.hd all in
  List.iter
    (fun r ->
      List.iter
        (fun (n, v) ->
          if List.mem n deterministic then
            Util.must_repeat (n ^ " between traced rounds")
              (Printf.sprintf "%h" (List.assoc n first)) (Printf.sprintf "%h" v))
        r)
    all;
  T.write (Filename.concat !work (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed));
  prov "traced_rounds" (string_of_int (List.length all));
  List.map (fun (n, _) -> (n, Util.median (List.map (List.assoc n) all))) first

let overhead ~traced_ms ~untraced_ms =
  [
    ("trace.overhead_ms", traced_ms -. untraced_ms);
    ("trace.overhead_pct", 100.0 *. (traced_ms -. untraced_ms) /. untraced_ms);
  ]

let par ~wall_1 ~wall_n ~cpu_n =
  [
    ("par.speedup", wall_1 /. wall_n);
    ("par.cpu_utilisation", cpu_n *. 1000.0 /. (wall_n *. float_of_int !jobs));
  ]

(* [f ~jobs] at jobs = nproc and at jobs = 1: both answers, the two wall
   times and the CPU time of the first. *)
let both_jobs f =
  let cpu0 = Util.self_cpu_s () in
  let out_n, wall_n = timed_ms (fun () -> f ~jobs:!jobs) in
  let cpu_n = Util.self_cpu_s () -. cpu0 in
  let out_1, wall_1 = timed_ms (fun () -> f ~jobs:1) in
  (out_n, out_1, par ~wall_1 ~wall_n ~cpu_n, wall_1)

(* [f ()] traced on a fresh event buffer: value, events, wall ms. *)
let traced f =
  T.reset ();
  let (v, evs), ms = timed_ms (fun () -> T.collect f) in
  (v, evs, ms)

(* One round: the pipeline untraced at jobs=nproc and at jobs=1, then
   traced at jobs=1; all three must agree. *)
let paper_exact_round () =
  let outs ~jobs = List.map fst (Paper.pass ~jobs Programs.all) in
  let out_n, out_1, par, wall_1 = both_jobs outs in
  let out_t, evs, traced_ms = traced (fun () -> List.map Paper.op Programs.all) in
  let print = Paper.fingerprint out_1 in
  Util.must_repeat "paper-exact fingerprint (jobs=nproc vs jobs=1)" print (Paper.fingerprint out_n);
  Util.must_repeat "paper-exact fingerprint (traced vs untraced)" print (Paper.fingerprint out_t);
  layer_metrics evs @ par @ overhead ~traced_ms ~untraced_ms:wall_1

let paper_exact_traced () =
  let values = rounds paper_exact_round in
  let outcomes = List.map fst (Paper.pass ~jobs:!jobs Programs.all) in
  Util.must_repeat "cachesim.accesses (traced vs reference runs)"
    (string_of_int (Paper.accesses (Paper.references ~jobs:!jobs outcomes)))
    (Printf.sprintf "%.0f" (List.assoc "cachesim.accesses" values));
  (List.length Programs.all,
   ("interp.minor_words_per_access", Paper.capture_minor_words outcomes) :: values)

let tune_search_round qs () =
  let rs_n, rs_1, par, wall_1 = both_jobs (fun ~jobs -> tune_results ~jobs qs) in
  let rs_t, evs, traced_ms =
    traced (fun () ->
        List.map (fun q -> Obs.span "Tune.run" (fun () -> tune_results ~jobs:1 [ q ])) qs)
  in
  let rs_t = List.concat rs_t in
  List.iter2
    (fun (a, b) c ->
      let what = "tune-search " ^ a.Tune.t_name in
      Util.must_repeat (what ^ " (jobs=nproc vs jobs=1)") (Tunes.fingerprint b) (Tunes.fingerprint a);
      Util.must_repeat (what ^ " (traced vs untraced)") (Tunes.fingerprint b) (Tunes.fingerprint c))
    (List.combine rs_n rs_1) rs_t;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs_1 in
  List.iter
    (fun (what, result, counter) ->
      Util.must_repeat (what ^ " (counter vs result)") (string_of_int result)
        (string_of_int (T.counter evs counter)))
    [
      ("tune.generated", sum (fun r -> r.Tune.t_generated), "tune.generated");
      ("tune.pruned_illegal", sum (fun r -> r.Tune.t_pruned), "tune.pruned_illegal");
      ("tune.screened", sum (fun r -> r.Tune.t_screened), "tune.screened");
      ("tune.confirmed", sum (fun r -> r.Tune.t_confirmed), "tune.simulated");
    ];
  layer_metrics evs
  @ [ ("tune.confirm_useful_share", share (sum Tunes.useful) (sum (fun r -> r.Tune.t_confirmed))) ]
  @ par @ overhead ~traced_ms ~untraced_ms:wall_1

let tune_search_traced rng =
  let qs = Util.shuffle rng Tunes.queries in
  let values = rounds (tune_search_round qs) in
  let estimated, simulated =
    List.fold_left
      (fun (e, s) r ->
        let e', s' = Tunes.access_counts r in
        (e + e', s + s'))
      (0, 0) (tune_results ~jobs:!jobs qs)
  in
  (List.length qs, ("analytic.access_count_ratio", share estimated simulated) :: values)

(* One round: the mix answered in process over a fresh store, untraced
   and then traced. Store hits and misses are the store's own counters
   over the traced pass, bytes read are what the process read meanwhile,
   bytes written what the store holds after it. *)
let serve_mix_round docs () =
  let with_store f =
    let dir = S.fresh_dir !work "store" in
    let v = f dir (Store.open_root dir) in
    S.rm_rf dir;
    v
  in
  let untraced_ms = with_store (fun _ store -> S.answer_all ~store docs) in
  with_store (fun dir store ->
      let c0 = Store.counters () and r0 = Util.read_bytes () in
      let _, evs, traced_ms = traced (fun () -> S.answer_all ~store docs) in
      let c1 = Store.counters () and r1 = Util.read_bytes () in
      let hits = c1.Store.hits - c0.Store.hits
      and misses = c1.Store.misses - c0.Store.misses in
      let written = (Store.disk_stats store).Store.bytes in
      let get_ms, put_ms = S.store_round_trip ~work:!work (S.store_objects dir) in
      layer_metrics evs
      @ [
          ("lang.bytes", float_of_int (S.source_bytes docs));
          ("store.get_ms", get_ms);
          ("store.put_ms", put_ms);
          ("store.hit_rate", share hits (hits + misses));
          ("store.bytes_read", float_of_int (r1 - r0));
          ("store.bytes_written", float_of_int written);
        ]
      @ overhead ~traced_ms ~untraced_ms)

let warm_doc =
  Request.to_json
    (Request.make ~id:"warm" ~n:32 ~machines:[ Request.Named "cache1" ]
       ~replay:Locality_interp.Measure.Runs (Request.Kernel "matmul"))

(* Median reply latency of each kind of document, from [nproc]
   closed-loop connections to a daemon over an empty store. *)
let latency_by_kind docs =
  let d, _ = S.spawn ~memoria:!memoria ~work:!work ~jobs:!jobs () in
  let deadline_ns = Int64.add (Util.now_ns ()) 5_000_000_000L in
  let served = S.closed_loop ~sock:d.S.sock ~conns:!jobs ~deadline_ns docs in
  S.stop d;
  List.map
    (fun k ->
      let lat = S.latencies k served in
      prov ("serve_" ^ S.kind_name k ^ "_samples") (string_of_int (List.length lat));
      (Printf.sprintf "serve.%s_p50_ms" (S.kind_name k), Util.median lat))
    S.kinds

(* The daemon's own overheads, measured once per run. One warm document
   goes, turn by turn so that both see the same host conditions, to a
   daemon with metrics off, to one with --metrics on, and through
   Driver.run in process over the first daemon's (warm) store; then the
   parallel speedup of the daemon on cold documents, -j 1 over one
   connection against -j nproc over nproc connections. *)
let serve_daemon_metrics docs =
  let jobs = !jobs and n = 400 in
  let start ?extra () =
    let d, _ = S.spawn ~memoria:!memoria ~work:!work ~jobs ?extra () in
    let c = Option.get (S.connect d.S.sock) in
    ignore (S.request c warm_doc);
    (d, c)
  in
  let d_off, c_off = start () in
  let metrics_file = Filename.concat !work "daemon-metrics.txt" in
  let d_on, c_on = start ~extra:[| "--metrics"; metrics_file |] () in
  let cfg =
    let req = Result.get_ok (Request.of_json warm_doc) in
    { (Result.get_ok (Request.to_config req)) with
      Locality_driver.Driver.store = Some (Store.open_root d_off.S.store) }
  in
  let in_process () =
    Response.to_json (Response.of_run ~id:"warm" (Locality_driver.Driver.run cfg))
  in
  let on_pid = string_of_int d_on.S.pid in
  let rss0 = Util.rss_kb on_pid in
  let lat = List.init n (fun _ ->
      let off = snd (timed_ms (fun () -> S.request c_off warm_doc)) in
      let on = snd (timed_ms (fun () -> S.request c_on warm_doc)) in
      let inp = snd (timed_ms in_process) in
      (off, on, inp))
  in
  let growth = float_of_int (Util.rss_kb on_pid - rss0) /. float_of_int n in
  List.iter S.close [ c_off; c_on ];
  List.iter S.stop [ d_off; d_on ];
  let lat_off = List.map (fun (x, _, _) -> x) lat
  and lat_on = List.map (fun (_, x, _) -> x) lat
  and in_proc = List.map (fun (_, _, x) -> x) lat in
  let cold = Array.of_list (List.filter (fun (d : S.doc) -> d.S.kind = S.Fresh) (Array.to_list docs)) in
  let par j =
    let d, _ = S.spawn ~memoria:!memoria ~work:!work ~jobs:j () in
    let cpu0 = Util.proc_cpu_s d.S.pid in
    let t0 = Util.now_ns () in
    ignore (S.closed_loop ~sock:d.S.sock ~conns:j ~deadline_ns:Int64.max_int cold);
    let wall = Util.s_since t0 in
    let cpu = Util.proc_cpu_s d.S.pid -. cpu0 in
    S.stop d;
    (wall, cpu)
  in
  let w1, _ = par 1 in
  let wn, cpun = par jobs in
  let med = Util.median in
  [
    ("serve.overhead_ms", med lat_off -. med in_proc);
    ("par.speedup", w1 /. wn);
    ("par.cpu_utilisation", cpun /. (wn *. float_of_int jobs));
    ("obs.metrics_overhead_pct", 100.0 *. (med lat_on -. med lat_off) /. med lat_off);
    ("obs.rss_growth_kb_per_req", growth);
  ]

let serve_mix_traced () =
  let docs = S.docs ~root:"." ~seed:!seed ~count:300 in
  let layers = rounds (serve_mix_round docs) in
  let by_kind = latency_by_kind (S.docs ~root:"." ~seed:!seed ~count:20_000) in
  (Array.length docs, layers @ serve_daemon_metrics docs @ by_kind)

(* ------------------------------------------------------------- main *)

let () =
  if !list then begin
    Printf.printf "{\"workloads\":[%s],\"end_to_end\":%s,\"per_layer\":%s}\n"
      (String.concat "," (List.map (Printf.sprintf "%S") workloads))
      (names_json end_to_end) (names_json per_layer);
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !setup_only then begin
    setup_work ~jobs:!jobs;
    exit 0
  end;
  Locality_store.Store.mkdir_p !work;
  let rng = Random.State.make [| !seed |] in
  let attempted, values =
    match (!workload, !trace) with
    | "paper-exact", 0 -> paper_exact rng
    | "tune-search", 0 -> tune_search rng
    | "serve-mix", 0 -> serve_mix ()
    | "paper-exact", _ -> paper_exact_traced ()
    | "tune-search", _ -> tune_search_traced rng
    | _, _ -> serve_mix_traced ()
  in
  let table = if !trace = 0 then end_to_end else per_layer in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n table) then failwith ("metric not in the table: " ^ n))
    values;
  let metrics =
    List.map
      (fun (n, unit) ->
        (* A layer a workload does not exercise did no work: 0. *)
        let v = Option.value ~default:0.0 (List.assoc_opt n values) in
        if not (Float.is_finite v) then failwith ("metric is not finite: " ^ n);
        Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v unit)
      table
  in
  prov "seed" (string_of_int !seed);
  prov "jobs" (string_of_int !jobs);
  prov "ocaml" Sys.ocaml_version;
  Printf.printf "{\"provenance\":{%s}}\n"
    (String.concat "," (List.rev_map (fun (k, v) -> Printf.sprintf "%S:%S" k v) !provenance));
  let failures = Atomic.get Util.failures in
  let failed = min attempted failures in
  let correct = failures = 0 && not !Util.nondeterministic in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," metrics)
