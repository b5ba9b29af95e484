(* serve-mix: the [memoria serve --socket] daemon with [-j nproc] and a
   store that starts empty, driven by [nproc] closed-loop connections
   (each sends its next request only after the reply to the previous one
   arrives). The seeded mix holds warm repeats, fresh compute documents,
   inline sources the parser must read, a few quick tune queries and a
   few malformed documents that must get typed errors. *)

module D = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Tune = Locality_stats.Tune
module Measure = Locality_interp.Measure
module Store = Locality_store.Store
module Obs = Locality_obs.Obs
module Gen = Locality_fuzz.Gen
module Pool = Locality_par.Pool
module Cache = Locality_cachesim.Cache

type kind = Repeat | Fresh | Text | Tune_query | Malformed

let kind_name = function
  | Repeat -> "repeat"
  | Fresh -> "fresh"
  | Text -> "text"
  | Tune_query -> "tune"
  | Malformed -> "malformed"

let kinds = [ Repeat; Fresh; Text; Tune_query; Malformed ]

type doc = { text : string; kind : kind }

(* Latencies of the documents of one kind among (document, ms, reply)
   results. *)
let latencies k served =
  List.filter_map (fun (d, ms, _) -> if d.kind = k then Some ms else None) served

(* Kernels cheap enough at n <= 32 that a cold request stays in the tens
   of milliseconds. *)
let kernels =
  [ "matmul"; "lu"; "cholesky"; "adi"; "gmtry"; "vpenta"; "simple";
    "jacobi2d"; "transpose"; "matmul_chain"; "swm"; "btrix" ]

let source_files =
  [ "adi"; "cholesky"; "gmtry"; "lu"; "matmul"; "simple"; "stencil"; "vpenta" ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A named geometry, both, or one of 96 custom ones, so fresh documents
   keep coming over a whole run. *)
let machines rng =
  match Random.State.int rng 4 with
  | 0 -> [ Request.Named "cache1" ]
  | 1 -> [ Request.Named "cache2" ]
  | 2 -> [ Request.Named "cache1"; Request.Named "cache2" ]
  | _ ->
    let kb = pick rng [ 4; 8; 16; 32; 64; 128 ]
    and assoc = pick rng [ 1; 2; 4; 8 ]
    and line = pick rng [ 16; 32; 64; 128 ] in
    [
      Request.Custom
        {
          Cache.name = Printf.sprintf "c%dk%dw%db" kb assoc line;
          size_bytes = kb * 1024;
          assoc;
          line_bytes = line;
        };
    ]

let machines_tag ms =
  String.concat "+"
    (List.map
       (function
         | Request.Named n -> n
         | Request.Custom c -> c.Cache.name)
       ms)

(* A quick search: one tile size, one unroll factor, one finalist. *)
let quick_tune tile =
  {
    Request.t_top_k = Some 1; t_tiles = Some [ tile ]; t_unrolls = Some [ 4 ];
    t_max_candidates = Some 96;
  }

(* Each generator returns the document's compute identity (what the
   daemon's answer depends on, the id aside) and its text. *)
let fresh_doc rng i =
  let replay = if Random.State.bool rng then Measure.Runs else Measure.Analytic in
  let n = 8 + Random.State.int rng 25
  and ms = machines rng
  and k = pick rng kernels in
  ( Printf.sprintf "fresh/%s/%d/%s/%b" k n (machines_tag ms) (replay = Measure.Runs),
    Request.to_json
      (Request.make ~id:(Printf.sprintf "f%d" i) ~n ~machines:ms ~replay
         (Request.Kernel k)) )

let text_doc ~sources ~seed rng i =
  if Random.State.bool rng then
    let f, text = pick rng sources in
    let n = 8 + Random.State.int rng 25 in
    ( Printf.sprintf "text/%s/%d" f n,
      Request.to_json
        (Request.make ~id:(Printf.sprintf "t%d" i) ~n
           ~machines:[ Request.Named "cache1" ] ~replay:Measure.Runs
           (Request.Text { name = f ^ ".f"; text })) )
  else
    let p = Gen.generate ~seed ~index:i ~size:8 in
    ( Printf.sprintf "gen/%d" i,
      Request.to_json
        (Request.make ~id:(Printf.sprintf "g%d" i)
           ~machines:[ Request.Named "cache2" ] ~replay:Measure.Runs
           (Request.Text
              { name = p.Program.name ^ ".f"; text = Pretty.program_to_string p })) )

let tune_doc rng i =
  let n = 8 + Random.State.int rng 24
  and k = pick rng [ "matmul"; "jacobi2d"; "lu"; "cholesky" ]
  and tile = pick rng [ 8; 16 ] in
  ( Printf.sprintf "tune/%s/%d/%d" k n tile,
    Request.to_json
      (Request.make ~id:(Printf.sprintf "q%d" i) ~n
         ~machines:[ Request.Named "cache2" ] ~tune:(quick_tune tile)
         (Request.Kernel k)) )

let malformed_doc rng i =
  match Random.State.int rng 4 with
  | 0 ->
    Printf.sprintf
      {|{"schema_version":1,"id":"m%d","source":{"kind":"kernel","name":"matmul"},"bogus":1}|}
      i
  | 1 ->
    Printf.sprintf
      {|{"schema_version":1,"id":"m%d","source":{"kind":"kernel","name":"no_such_kernel"}}|}
      i
  | 2 -> Printf.sprintf {|{"schema_version":1,"id":"m%d","source":|} i
  | _ ->
    Request.to_json
      (Request.make ~id:(Printf.sprintf "m%d" i)
         ~machines:[ Request.Named "cache1" ]
         (Request.Text
            { name = "broken.f"; text = "PROGRAM broken\nDO I = 1,\nEND\n" }))

(* The first [count] documents of the mix for [seed]. The shares are
   the benchmark's choice, not measured traffic: about 55% repeats of an
   earlier computable document, 25% fresh kernel documents (size,
   geometries and runs/analytic replay drawn at random), 10% inline
   sources, 3% quick tune queries and 7% malformed documents. A drawn
   document whose compute identity was already drawn is a repeat, so
   [Fresh], [Text] and [Tune_query] documents are each the first of
   their identity. The
   traced pass reports latency per kind, so no figure rests on the
   shares alone. *)
let docs ~root ~seed ~count =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let sources =
    List.map
      (fun f -> (f, Util.read_file (Filename.concat root ("kernels/" ^ f ^ ".f"))))
      source_files
  in
  let computable = ref [||] and ncomp = ref 0 in
  let seen = Hashtbl.create 1024 in
  let remember kind (identity, text) =
    let d = { text; kind } in
    if Hashtbl.mem seen identity then { d with kind = Repeat }
    else begin
      Hashtbl.replace seen identity ();
      if !ncomp = Array.length !computable then
        computable := Array.append !computable (Array.make (max 16 !ncomp) d);
      !computable.(!ncomp) <- d;
      incr ncomp;
      d
    end
  in
  Array.init count (fun i ->
      let r = Random.State.float rng 1.0 in
      if r < 0.55 && !ncomp > 0 then
        { (!computable.(Random.State.int rng !ncomp)) with kind = Repeat }
      else if r < 0.80 then remember Fresh (fresh_doc rng i)
      else if r < 0.90 then remember Text (text_doc ~sources ~seed rng i)
      else if r < 0.93 then remember Tune_query (tune_doc rng i)
      else { text = malformed_doc rng i; kind = Malformed })

(* ----------------------------------------------------- the reference *)

(* What the daemon answers, computed in process: the same dispatch as
   [memoria sim --request], over [store] when given. A tune query runs
   its search at jobs = 1, as it does on a daemon worker (where nested
   pools run sequentially), so its store traffic does not depend on how
   two domains interleave. The calls into the driver's wire API run
   under spans of their names, which record only when tracing is on. *)
let answer ?store text =
  let resp =
    match Obs.span "Request.of_json" (fun () -> Request.of_json text) with
    | Error message -> Response.Failed { id = ""; message }
    | Ok req -> (
      match Request.to_config req with
      | Error message -> Response.Failed { id = req.Request.id; message }
      | Ok cfg -> (
        let cfg =
          match store with None -> cfg | Some s -> { cfg with D.store = Some s }
        in
        match req.Request.tune with
        | Some ts ->
          Response.of_tune ~id:req.Request.id
            (Result.map Tune.to_json
               (Tune.run_config ~spec:(Tune.spec_of_request ts) ~jobs:1 cfg))
        | None ->
          Response.of_run ~id:req.Request.id
            ~emit_program:req.Request.emit_program (D.run cfg)))
  in
  Obs.span "Response.to_json" (fun () -> Response.to_json resp)

(* Every document of [docs] answered in process over [store]; the wall
   time in ms. *)
let answer_all ~store (docs : doc array) =
  let t0 = Util.now_ns () in
  Array.iter (fun d -> ignore (answer ~store d.text)) docs;
  Util.ms_since t0

(* Bytes of inline source the documents hand to the parser. *)
let source_bytes (docs : doc array) =
  Array.fold_left
    (fun acc d ->
      match Request.of_json d.text with
      | Ok { Request.source = Request.Text { text; _ }; _ } -> acc + String.length text
      | _ -> acc)
    0 docs

(* Tune replies count their own store hits and misses; those depend on
   how warm the store was, not on the answer. *)
let scrub_warmth reply =
  let drop key s =
    let pat = Printf.sprintf "\"%s\":" key in
    let n = String.length pat in
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      if !i + n <= len && String.sub s !i n = pat then begin
        Buffer.add_string b pat;
        i := !i + n;
        while !i < len && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
        Buffer.add_char b '#'
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  drop "store_misses" (drop "store_hits" reply)

(* Statement label names depend on process history: kernels and parsed
   sources draw them from a process-wide counter, and the store's
   analysis entry is keyed by program text, which omits labels, so a
   daemon can answer with the label names of an identical program it
   built earlier. Renaming the labels in [optimized_labels] in order of
   first appearance keeps the comparison on what they denote; [check]
   reports how many replies differed only in this naming. *)
let canonical_labels reply =
  let key = "\"optimized_labels\":[" in
  let n = String.length key and len = String.length reply in
  let names = Hashtbl.create 8 in
  let b = Buffer.create len in
  let i = ref 0 in
  while !i < len do
    if !i + n <= len && String.sub reply !i n = key then begin
      Buffer.add_string b key;
      i := !i + n;
      while !i < len && reply.[!i] <> ']' do
        if reply.[!i] = '"' then begin
          let j = String.index_from reply (!i + 1) '"' in
          let name = String.sub reply (!i + 1) (j - !i - 1) in
          let canon =
            match Hashtbl.find_opt names name with
            | Some c -> c
            | None ->
              let c = Printf.sprintf "#%d" (Hashtbl.length names) in
              Hashtbl.replace names name c;
              c
          in
          Buffer.add_string b ("\"" ^ canon ^ "\"");
          i := j + 1
        end
        else begin
          Buffer.add_char b reply.[!i];
          incr i
        end
      done
    end
    else begin
      Buffer.add_char b reply.[!i];
      incr i
    end
  done;
  Buffer.contents b

let status_of reply =
  match Locality_telemetry.Jsonin.parse_opt reply with
  | None -> "unparsable"
  | Some j -> (
    match Option.bind (Locality_telemetry.Jsonin.member "status" j)
            Locality_telemetry.Jsonin.to_string_opt with
    | Some s -> s
    | None -> "missing")

(* Every reply must equal the in-process answer to the same document,
   warmth counters aside; malformed documents must get a typed error and
   the rest must not. Returns how many replies differed from the
   in-process answer only in statement-label names. *)
let check ~jobs (served : (doc * string) list) =
  let distinct = Hashtbl.create 256 in
  List.iter (fun (d, _) -> Hashtbl.replace distinct d.text ()) served;
  let texts = Hashtbl.fold (fun t () acc -> t :: acc) distinct [] in
  let table = Hashtbl.create 256 in
  List.iter2
    (fun t r -> Hashtbl.replace table t r)
    texts
    (Pool.map ~jobs (fun t -> scrub_warmth (answer t)) texts);
  let renamed = ref 0 in
  List.iter
    (fun (d, reply) ->
      let status = status_of reply in
      let want = Hashtbl.find table d.text in
      let got = scrub_warmth reply in
      if got <> want && canonical_labels got = canonical_labels want then incr renamed;
      if canonical_labels got <> canonical_labels want then
        Util.fail "serve-mix %s reply differs from in-process answer: %s <> %s"
          (kind_name d.kind) reply want
      else if d.kind = Malformed && status <> "error" then
        Util.fail "serve-mix malformed document got %s" status
      else if d.kind <> Malformed && status <> "ok" then
        Util.fail "serve-mix %s document got %s: %s" (kind_name d.kind) status reply)
    served;
  !renamed

(* -------------------------------------------------------- the daemon *)

type daemon = { pid : int; sock : string; store : string }

let clean_env extra =
  Array.append extra
    (Array.of_list
       (List.filter
          (fun kv -> not (String.length kv >= 8 && String.sub kv 0 8 = "MEMORIA_"))
          (Array.to_list (Unix.environment ()))))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let counter = ref 0

let fresh_dir work name =
  incr counter;
  let d =
    Filename.concat work (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) !counter)
  in
  rm_rf d;
  Store.mkdir_p d;
  d

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let probe =
  {|{"schema_version":1,"id":"probe","source":{"kind":"kernel","name":"matmul"},"timeout_ms":0}|}

(* Spawn a daemon over a fresh store and wait until it answers a probe.
   Returns the daemon and the seconds that took. *)
let spawn ~memoria ~work ~jobs ?(extra = [||]) () =
  let store = fresh_dir work "store" in
  let sock = Filename.concat store "sock" in
  let log = Unix.openfile (Filename.concat work "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Util.now_ns () in
  let pid =
    Unix.create_process_env memoria
      (Array.append
         [| memoria; "serve"; "--socket"; sock; "-j"; string_of_int jobs |]
         extra)
      (clean_env [| "MEMORIA_STORE=" ^ store |])
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; sock; store } in
  let deadline = Int64.add t0 10_000_000_000L in
  let rec wait () =
    match connect sock with
    | Some c -> c
    | None ->
      if Util.now_ns () > deadline then failwith "daemon did not come up"
      else begin
        Unix.sleepf 0.0001;
        wait ()
      end
  in
  let c = wait () in
  let reply = request c probe in
  let s = Util.s_since t0 in
  close c;
  if status_of reply <> "timeout" then
    failwith ("unexpected probe reply " ^ reply);
  (d, s)

(* Drain and stop the daemon, wait for it, and delete its store. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  rm_rf d.store

(* Closed loop: [conns] connections each take the next document and wait
   for its reply, until the documents or the time run out. Returns
   (document, latency ms, reply) in completion order. [on_tick], when
   given, is called from the calling thread every [tick_s] seconds with
   the number of replies so far. *)
let closed_loop ?on_tick ?(tick_s = 1.0) ~sock ~conns ~deadline_ns
    (docs : doc array) =
  let next = Atomic.make 0 and completed = Atomic.make 0 in
  let results = Array.make conns [] in
  let worker k =
    match connect sock with
    | None -> failwith "cannot connect"
    | Some c ->
      let rec loop acc =
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length docs || Util.now_ns () > deadline_ns then acc
        else begin
          let t0 = Util.now_ns () in
          let reply = request c docs.(i).text in
          let ms = Util.ms_since t0 in
          Atomic.incr completed;
          loop ((docs.(i), ms, reply) :: acc)
        end
      in
      results.(k) <- loop [];
      close c
  in
  let threads = List.init conns (fun k -> Thread.create worker k) in
  (match on_tick with
  | None -> ()
  | Some f ->
    let start = Util.now_ns () in
    let rec tick i =
      let due = Int64.add start (Int64.of_float (float_of_int i *. tick_s *. 1e9)) in
      if due <= deadline_ns then begin
        let wait = Int64.to_float (Int64.sub due (Util.now_ns ())) /. 1e9 in
        if wait > 0.0 then Thread.delay wait;
        f (Atomic.get completed);
        tick (i + 1)
      end
    in
    tick 1);
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* --------------------------------------------------------- the run *)

type timed = {
  setup_s : float;
  served : (doc * float * string) list;
  window_ops_per_s : float list;  (** one per one-second window *)
  window_cpu_per_op_ms : float list;
  daemon_peak_rss_mb : float;
}

(* [n] daemons spawned and stopped in turn: the seconds each took to
   answer its probe. *)
let setups ~memoria ~work ~jobs n =
  List.init n (fun _ ->
      let d, s = spawn ~memoria ~work ~jobs () in
      stop d;
      s)

(* The host's speed drifts over seconds, so set-up is sampled on both
   sides of the timed region: 20 daemons before it, the measured one,
   and 20 after; setup_s is their median. *)
let run ~memoria ~root ~work ~seed ~seconds ~jobs =
  let before = setups ~memoria ~work ~jobs 20 in
  (* Far more documents than a run sends at today's speed. *)
  let docs = docs ~root ~seed ~count:200_000 in
  let d, s = spawn ~memoria ~work ~jobs () in
  let windows = ref [] in
  let last = ref (Util.now_ns (), 0, Util.proc_cpu_s d.pid) in
  let on_tick n =
    let t1 = Util.now_ns () and cpu1 = Util.proc_cpu_s d.pid in
    let t0, n0, cpu0 = !last in
    let ops = n - n0 in
    let wall = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
    if ops > 0 then
      windows :=
        (float_of_int ops /. wall, (cpu1 -. cpu0) *. 1000.0 /. float_of_int ops)
        :: !windows;
    last := (t1, n, cpu1)
  in
  let t0 = Util.now_ns () in
  last := (t0, 0, Util.proc_cpu_s d.pid);
  let deadline_ns = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let served = closed_loop ~on_tick ~sock:d.sock ~conns:jobs ~deadline_ns docs in
  if List.length served = Array.length docs then
    print_endline "NOTE serve-mix sent every document before the deadline";
  let daemon_peak_rss_mb = Util.peak_rss_mb (string_of_int d.pid) in
  stop d;
  let after = setups ~memoria ~work ~jobs 20 in
  {
    setup_s = Util.median (before @ (s :: after));
    served;
    window_ops_per_s = List.map fst !windows;
    window_cpu_per_op_ms = List.map snd !windows;
    daemon_peak_rss_mb;
  }

(* ------------------------------------------------------ store layer *)

(* Every object file under a store's objects/ directory, in name order. *)
let store_objects root =
  let dir = Filename.concat root "objects" in
  let sorted_dir d = List.sort compare (Array.to_list (Sys.readdir d)) in
  if not (Sys.file_exists dir) then []
  else
    List.concat_map
      (fun hh ->
        let d = Filename.concat dir hh in
        List.map (fun f -> Util.read_file (Filename.concat d f)) (sorted_dir d))
      (sorted_dir dir)

(* [Store.put] and then [Store.get] once on each of [objects], in a fresh
   store: summed ms of the puts and of the gets. The daemon's own store
   calls sit inside the libraries, which open no span around them, so
   this times the store on the objects a run wrote instead. *)
let store_round_trip ~work objects =
  let dir = fresh_dir work "roundtrip" in
  let st = Store.open_root dir in
  let keys =
    List.mapi (fun i _ -> Store.key ~kind:"perfbench" [ string_of_int i ]) objects
  in
  let t0 = Util.now_ns () in
  List.iter2 (Store.put st) keys objects;
  let put_ms = Util.ms_since t0 in
  let t1 = Util.now_ns () in
  List.iter
    (fun k -> if Store.get st k = None then Util.fail "store: object written but not read back")
    keys;
  let get_ms = Util.ms_since t1 in
  rm_rf dir;
  (get_ms, put_ms)
