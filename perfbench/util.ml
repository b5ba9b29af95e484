(* Clocks, process accounting, statistics and seeded shuffling shared by
   the workloads. *)

let now_ns = Locality_obs.Obs.now_ns
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = ms_since t0 /. 1e3

(* CPU seconds of this process, every domain and thread included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report length 0; read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A "Key:   123 kB" field of /proc/<pid>/status, in kB. *)
let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = read_lines path in
  let prefix = key ^ ":" in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      lines
  with
  | None -> failwith (Printf.sprintf "%s: no %s" path key)
  | Some l ->
    let v = String.trim (String.sub l n (String.length l - n)) in
    Scanf.sscanf v "%d" Fun.id

let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.0
let rss_kb pid = proc_status_kb pid "VmRSS"

(* utime + stime of another process, from /proc/<pid>/stat, in seconds. *)
let proc_cpu_s pid =
  let s = String.concat " " (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* The command name may hold spaces; the fields after it start past
     the last ')'. *)
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* Fields 14 and 15 of stat are the 12th and 13th after the name. *)
  let ticks = float_of_string f.(11) +. float_of_string f.(12) in
  ticks /. 100.0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, p in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let nproc () = Domain.recommended_domain_count ()

(* Failures an operation collects: an oracle that did not hold, an error
   where none was due. Reported on stdout as they happen, counted in the
   result line. *)
let failures = Atomic.make 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failures;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

(* A deterministic metric or count that did not repeat exactly fails the
   whole run, not one operation. *)
let nondeterministic = ref false

let must_repeat what a b =
  if a <> b then begin
    nondeterministic := true;
    Printf.printf "NONDETERMINISTIC %s: %s <> %s\n%!" what a b
  end

(* Bytes this process has read through read(2) and friends so far. *)
let read_bytes () =
  let line = List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "rchar:")
      (read_lines "/proc/self/io") in
  Scanf.sscanf line "rchar: %d" Fun.id

