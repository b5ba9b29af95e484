(* paper-exact: the paper's evaluation pipeline, Table 2 then Table 4,
   over the 35 suite programs, as [bench table2 table4] runs it. One
   operation is one program: [Table2.compute_row] (compound at the
   Table 2 size) and then [Perf.table4_rows] on that row (capture of
   both versions and [runs] replay on cache1 and cache2 at the Table 4
   size, statement labels on). There is no store. Passes run the suite
   in the paper's order; the seed picks the programs the oracles
   re-check. *)

module D = Locality_driver.Driver
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine
module Cache = Locality_cachesim.Cache
module Programs = Locality_suite.Programs
module Exec = Locality_interp.Exec
module Pool = Locality_par.Pool
module Table2 = Locality_stats.Table2
module Perf = Locality_stats.Perf
module Obs = Locality_obs.Obs

type outcome = { row : Table2.row; hits : Perf.hit_row list }

let op (entry : Programs.entry) =
  let row = Obs.span "Table2.compute_row" (fun () -> Table2.compute_row entry) in
  let hits = Obs.span "Perf.table4_rows" (fun () -> Perf.table4_rows ~jobs:1 [ row ]) in
  { row; hits }

let name o = o.row.Table2.entry.Programs.name

(* One pass over the suite in the given order; per-program latencies in
   ms, measured on the worker that ran the program. A program that
   raises is a failed operation and drops out of the pass. *)
let pass ~jobs entries =
  List.filter_map Fun.id
    (Pool.map ~jobs
       (fun e ->
         let t0 = Util.now_ns () in
         match op e with
         | o -> Some (o, Util.ms_since t0)
         | exception ex ->
           Util.fail "paper-exact %s: %s" e.Programs.name (Printexc.to_string ex);
           None)
       entries)

(* Everything a pass computes that must repeat exactly, by program
   name. Statement label names and program texts are left out: labels
   come from a process-wide counter, so they depend on which domain
   built a program first. *)
let fingerprint outcomes =
  let tag o =
    let r = o.row in
    Printf.sprintf "%s:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%h:%h:%d|%s" (name o)
      r.Table2.loops r.Table2.nests r.Table2.orig r.Table2.perm r.Table2.fail
      r.Table2.inner_orig r.Table2.inner_perm r.Table2.inner_fail
      r.Table2.fusion_candidates r.Table2.fusions r.Table2.dist
      r.Table2.dist_results r.Table2.ratio_final r.Table2.ratio_ideal
      (List.length r.Table2.optimized_labels)
      (String.concat ";"
         (List.map
            (fun (h : Perf.hit_row) ->
              Printf.sprintf "%h,%h,%h,%h,%h,%h,%h,%h" h.Perf.opt1_orig
                h.Perf.opt1_final h.Perf.opt2_orig h.Perf.opt2_final
                h.Perf.whole1_orig h.Perf.whole1_final h.Perf.whole2_orig
                h.Perf.whole2_final)
            o.hits))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map tag (List.sort (fun a b -> compare (name a) (name b)) outcomes))))

(* --------------------------------------------------------- reference *)

(* [Perf.table4_rows] reports hit rates, not cycles or access counts.
   The reference re-runs each row through [Driver.run] as Table 4
   configures it (its default size, both geometries, labels on), which
   gives the modelled speedups behind [opt_speedup_geomean] and the
   exact counts the oracles check. *)
let table4_params = [ ("N", 32) ]
let machines = [ Machine.cache1; Machine.cache2 ]

type reference = { outcome : outcome; measured : D.measured list }

let reference o =
  let r = o.row in
  let measured =
    if r.Table2.nests = 0 then []
    else
      (D.run_exn
         (D.config ~params:table4_params ~replay:Measure.Runs ~store:None
            ~transform:
              (D.Provided
                 {
                   transformed = r.Table2.transformed;
                   optimized_labels = r.Table2.optimized_labels;
                 })
            ~machines ~use_labels:true
            (D.Source_program { name = name o; program = r.Table2.original })))
        .D.measured
  in
  { outcome = o; measured }

let references ~jobs outcomes = Pool.map ~jobs reference outcomes

let speedup_geomean refs =
  Util.geomean
    (List.concat_map
       (fun r -> List.map (fun (m : D.measured) -> m.D.speedup) r.measured)
       refs)

let accesses refs =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (m : D.measured) ->
          acc + m.D.original_run.Measure.whole.Measure.accesses
          + m.D.transformed_run.Measure.whole.Measure.accesses)
        acc r.measured)
    0 refs

(* ------------------------------------------------------------ oracles *)

let region_tag (r : Measure.region) =
  Printf.sprintf "%d/%d/%d" r.Measure.accesses r.Measure.hits r.Measure.cold

let run_tag (r : Measure.run) =
  Printf.sprintf "%s|%s|%d|%h" (region_tag r.Measure.whole)
    (region_tag r.Measure.optimized) r.Measure.ops r.Measure.cycles

(* The hit rates Table 4 printed are those of the reference counts. *)
let check_hit_rates r =
  match (r.outcome.hits, r.measured) with
  | [], [] -> ()
  | [ h ], [ m1; m2 ] ->
    let rate (run : Measure.run) reg = Measure.hit_rate (reg run) in
    let whole (run : Measure.run) = run.Measure.whole
    and opt (run : Measure.run) = run.Measure.optimized in
    let o1 = m1.D.original_run and f1 = m1.D.transformed_run in
    let o2 = m2.D.original_run and f2 = m2.D.transformed_run in
    List.iter
      (fun (what, table, counted) ->
        if table <> counted then
          Util.fail "paper-exact %s %s: table4 %h <> counted %h" (name r.outcome)
            what table counted)
      [
        ("opt1_orig", h.Perf.opt1_orig, rate o1 opt);
        ("opt1_final", h.Perf.opt1_final, rate f1 opt);
        ("opt2_orig", h.Perf.opt2_orig, rate o2 opt);
        ("opt2_final", h.Perf.opt2_final, rate f2 opt);
        ("whole1_orig", h.Perf.whole1_orig, rate o1 whole);
        ("whole1_final", h.Perf.whole1_final, rate f1 whole);
        ("whole2_orig", h.Perf.whole2_orig, rate o2 whole);
        ("whole2_final", h.Perf.whole2_final, rate f2 whole);
      ]
  | _ ->
    Util.fail "paper-exact %s: %d table4 rows for %d measurements"
      (name r.outcome) (List.length r.outcome.hits) (List.length r.measured)

(* The v1 per-access replay is an independent path to the same counts:
   exact [runs] results must equal it on every geometry and region. *)
let check_per_access r =
  let row = r.outcome.row in
  let check version program runs =
    let cap =
      Measure.capture ~mode:Measure.Per_access ~params:table4_params
        ~store:None program
    in
    List.iter
      (fun ((m : D.measured), (run : Measure.run)) ->
        let per_access =
          Measure.replay ~config:m.D.machine ~timing:Machine.default_timing
            ~optimized_labels:row.Table2.optimized_labels ~store:None cap
        in
        if run_tag per_access <> run_tag run then
          Util.fail "paper-exact %s %s %s: runs %s <> per-access %s"
            (name r.outcome) version m.D.machine.Cache.name (run_tag run)
            (run_tag per_access))
      runs
  in
  check "original" row.Table2.original
    (List.map (fun (m : D.measured) -> (m, m.D.original_run)) r.measured);
  check "transformed" row.Table2.transformed
    (List.map (fun (m : D.measured) -> (m, m.D.transformed_run)) r.measured)

let checksum p =
  let r = Exec.run ~params:table4_params p in
  List.fold_left (fun acc (_, a) -> Array.fold_left ( +. ) acc a) 0.0 r.Exec.arrays

(* The transformed program computes what the original does. *)
let check_semantics r =
  let row = r.outcome.row in
  let a = checksum row.Table2.original and b = checksum row.Table2.transformed in
  if Float.abs (a -. b) > 1e-6 *. Float.max 1.0 (Float.abs a) then
    Util.fail "paper-exact %s: checksum %h (original) <> %h (transformed)"
      (name r.outcome) a b

(* Minor-heap words [Measure.capture] allocates per access recorded,
   over both versions of every program. *)
let capture_minor_words outcomes =
  let words = ref 0.0 and records = ref 0 in
  List.iter
    (fun o ->
      if o.row.Table2.nests > 0 then
        List.iter
          (fun p ->
            let w0 = Gc.minor_words () in
            let cap =
              Measure.capture ~mode:Measure.Runs ~params:table4_params ~store:None p
            in
            words := !words +. (Gc.minor_words () -. w0);
            let n, _, _ = Measure.trace_stats cap in
            records := !records + n)
          [ o.row.Table2.original; o.row.Table2.transformed ])
    outcomes;
  if !records = 0 then 0.0 else !words /. float_of_int !records
