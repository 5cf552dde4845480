type config = {
  file_sets : int;
  requests : int;
  duration : float;
  weight_exponent : float;
  mean_demand : float;
  demand_shape : int;
  seed : int;
}

let default_config =
  {
    file_sets = 500;
    requests = 100_000;
    duration = 10_000.0;
    weight_exponent = 3.0;
    mean_demand = 0.25;
    demand_shape = 4;
    seed = 42;
  }

let name_of i = Printf.sprintf "synth-%03d" i

let raw_weights config =
  let rng = Desim.Rng.create config.seed in
  Array.init config.file_sets (fun _ ->
      let u = Desim.Rng.float rng in
      (* Avoid exactly-zero weights so every file set appears. *)
      Float.max 1e-6 (u ** config.weight_exponent))

let weights config =
  let raw = raw_weights config in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.to_list (Array.mapi (fun i w -> (name_of i, w /. total)) raw)

let validate config =
  if config.file_sets <= 0 then
    invalid_arg "Synthetic.generate: file_sets must be positive";
  if config.requests <= 0 then
    invalid_arg "Synthetic.generate: requests must be positive";
  if config.duration <= 0.0 then
    invalid_arg "Synthetic.generate: duration must be positive";
  if config.mean_demand <= 0.0 then
    invalid_arg "Synthetic.generate: mean_demand must be positive";
  if config.demand_shape <= 0 then
    invalid_arg "Synthetic.generate: demand_shape must be positive"

let stream config =
  validate config;
  let raw = raw_weights config in
  let total = Array.fold_left ( +. ) 0.0 raw in
  (* Cumulative distribution over file sets for request attribution. *)
  let cumulative = Array.make config.file_sets 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cumulative.(i) <- !acc)
    raw;
  let pick_file_set u =
    (* Binary search for the first cumulative >= u. *)
    let lo = ref 0 and hi = ref (config.file_sets - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let names = Array.init config.file_sets name_of in
  (* The sorted arrival walk ([Stream.sorted_uniforms]) is inlined so
     its state lives in a float cell instead of a boxed ref. *)
  let fresh () =
    let rng = Desim.Rng.create (config.seed + 1) in
    let emitted = ref 0 in
    let vcell = [| 0.0 |] in
    fun () ->
      let k = !emitted in
      if k >= config.requests then None
      else begin
        emitted := k + 1;
        (* Conditional law of the next order statistic: the minimum of
           the [requests - k] uniforms still to come on [v, duration]. *)
        let u = Desim.Rng.float rng in
        let remaining = config.requests - k in
        let v0 = vcell.(0) in
        let time =
          v0
          +. (config.duration -. v0)
             *. (1.0 -. ((1.0 -. u) ** (1.0 /. float_of_int remaining)))
        in
        vcell.(0) <- time;
        let fs = pick_file_set (Desim.Rng.float rng) in
        let op = Trace.sample_op rng in
        let demand =
          Desim.Rng.erlang rng ~shape:config.demand_shape
            ~mean:config.mean_demand
        in
        let request =
          {
            Sharedfs.Request.op;
            file_set = names.(fs);
            path_hash = Desim.Rng.int rng 1_000_000;
            client = Desim.Rng.int rng 200;
          }
        in
        Some { Stream.time; fs; request; demand }
      end
  in
  Stream.make ~duration:config.duration ~total:config.requests
    ~file_sets:(Array.to_list names) ~fresh ()

let generate config = Stream.to_trace (stream config)
