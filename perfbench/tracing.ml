(* The traced pass records with the libraries' own tracer. [collect]
   turns tracing on around a call, so the spans the libraries open
   around their phases ("parse", "optimize", "compound", "dep",
   "capture", "replay", "analytic", "tune.screen", "tune.confirm", ...)
   and the spans this benchmark opens with [Obs.span] around its own
   calls into public functions ("Table2.compute_row",
   "Perf.table4_rows", "Tune.run", "Request.of_json",
   "Response.to_json") land in memory together with the libraries'
   counters and decision records. Every span carries its name, start, duration,
   self time (duration minus its direct children) and the names of the
   spans it sits in. The events of a run are kept and written out at
   the end with [write]. *)

module Obs = Locality_obs.Obs
module Event = Locality_obs.Event

let kept : Event.t list list ref = ref []

(* [f ()] with tracing on; returns its value and the events it recorded
   on this domain (a pool at jobs = 1 runs on the caller's domain). *)
let collect f =
  let v, evs = Obs.collect f in
  kept := evs :: !kept;
  (v, evs)

let span_fold f init evs =
  List.fold_left
    (fun acc (e : Event.t) ->
      match e.Event.payload with
      | Event.Span { name; dur_ns; self_ns; args; _ } ->
        f acc ~name ~dur_ns ~self_ns ~args
      | _ -> acc)
    init evs

let ms_of ns = Int64.to_float ns /. 1e6

(* Summed self time of the spans with one of these names, in ms. *)
let self_ms evs names =
  ms_of
    (span_fold
       (fun acc ~name ~dur_ns:_ ~self_ns ~args:_ ->
         if List.mem name names then Int64.add acc self_ns else acc)
       0L evs)

(* Summed duration, children included, in ms. *)
let total_ms evs name =
  ms_of
    (span_fold
       (fun acc ~name:n ~dur_ns ~self_ns:_ ~args:_ ->
         if n = name then Int64.add acc dur_ns else acc)
       0L evs)

(* How many spans of this name carry the argument [arg], or an argument
   named [key] (any span of the name when neither is given). *)
let count ?arg ?key evs name =
  span_fold
    (fun acc ~name:n ~dur_ns:_ ~self_ns:_ ~args ->
      let has =
        match (arg, key) with
        | Some kv, _ -> List.mem kv args
        | None, Some k -> List.mem_assoc k args
        | None, None -> true
      in
      if n = name && has then acc + 1 else acc)
    0 evs

(* Mean duration of one span of this name, in ms. *)
let per_call_ms evs name =
  let n = count evs name in
  if n = 0 then 0.0 else total_ms evs name /. float_of_int n

let counter evs name =
  List.fold_left
    (fun acc (e : Event.t) ->
      match e.Event.payload with
      | Event.Counter { name = n; delta } when n = name -> acc + delta
      | _ -> acc)
    0 evs

(* Sum of a histogram's observations. *)
let hist_sum evs name =
  List.fold_left
    (fun acc (e : Event.t) ->
      match e.Event.payload with
      | Event.Hist { name = n; value } when n = name -> acc + value
      | _ -> acc)
    0 evs

let decisions evs =
  List.filter_map
    (fun (e : Event.t) ->
      match e.Event.payload with Event.Decision d -> Some d | _ -> None)
    evs

(* One JSON object per span: name, start and end in ns, the enclosing
   span's name (null at top level), the self time and the arguments. *)
let write path =
  let oc = open_out path in
  List.iter
    (List.iter (fun (e : Event.t) ->
         match e.Event.payload with
         | Event.Span { name; begin_ns; dur_ns; self_ns; stack; args } ->
           let parent =
             match List.rev stack with
             | p :: _ -> Printf.sprintf "%S" p
             | [] -> "null"
           in
           Printf.fprintf oc
             "{\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%s,\"self_ns\":%Ld,\"args\":{%s}}\n"
             name begin_ns (Int64.add begin_ns dur_ns) parent self_ns
             (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) args))
         | _ -> ()))
    (List.rev !kept);
  close_out oc

let reset () = kept := []
