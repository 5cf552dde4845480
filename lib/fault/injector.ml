module Cluster = Sharedfs.Cluster
module Server_id = Sharedfs.Server_id

type actions = {
  crash : domain:string option -> Server_id.t list -> unit;
  recover : domain:string option -> Server_id.t list -> unit;
  partition :
    domain:string option -> Server_id.t list -> link:Cluster.link -> unit;
  heal : domain:string option -> Server_id.t list -> unit;
  crash_delegate : unit -> unit;
}

type t = {
  plan : Plan.t;
  sim : Desim.Sim.t;
  cluster : Cluster.t;
  obs : Obs.Ctx.t;
  actions : actions;
  counts : (string, int ref) Hashtbl.t;
  mutable move_seq : int;  (** moves seen so far, for [Move_crash] *)
  (* Open fault spans: a crash span runs from injected crash to
     injected recovery, a partition span from cut to heal, so traces
     show fault {e windows}, not just their edges.  A domain fault
     opens one span for the whole domain, never one per member. *)
  crash_spans : (Server_id.t, Obs.Span.id) Hashtbl.t;
  partition_spans : (Server_id.t, Obs.Span.id) Hashtbl.t;
  domain_crash_spans : (string, Obs.Span.id) Hashtbl.t;
  domain_partition_spans : (string, Obs.Span.id) Hashtbl.t;
}

let bump t name =
  (match Hashtbl.find_opt t.counts name with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts name (ref 1));
  match Obs.Ctx.metrics t.obs with
  | None -> ()
  | Some m -> Obs.Metrics.Counter.incr (Obs.Metrics.counter m ("fault." ^ name))

let record t ?server ?file_set fault =
  bump t (Obs.Event.fault_name fault);
  if Obs.Ctx.tracing t.obs then
    Obs.Ctx.emit t.obs
      (Obs.Event.Fault
         {
           time = Desim.Sim.now t.sim;
           server = Option.map Server_id.to_int server;
           file_set;
           fault;
         })

let crash t id =
  record t ~server:id Obs.Event.Server_crash;
  if not (Hashtbl.mem t.crash_spans id) then begin
    let span =
      Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"crash"
        ~cat:"fault" ~server:(Server_id.to_int id) ()
    in
    if span <> Obs.Span.none then Hashtbl.replace t.crash_spans id span
  end;
  t.actions.crash ~domain:None [ id ]

let recover t id =
  record t ~server:id Obs.Event.Server_recover;
  (match Hashtbl.find_opt t.crash_spans id with
  | Some span ->
    Hashtbl.remove t.crash_spans id;
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span ~name:"crash"
      ~cat:"fault" ~server:(Server_id.to_int id) ~outcome:"recovered" ()
  | None -> ());
  t.actions.recover ~domain:None [ id ]

let note_delegate_crash t =
  record t Obs.Event.Delegate_crash;
  t.actions.crash_delegate ()

let link_name = function `Cluster -> "cluster" | `Disk -> "disk"

(* While the partition is open, the isolated server periodically tries
   to write shared metadata from the wrong side — the zombie writes the
   fence must reject.  Probes stop on heal or crash. *)
let zombie_cadence = 5.0

let rec zombie_probe t id =
  if Cluster.is_partitioned t.cluster id then begin
    let (_ : [ `Landed | `Rejected ]) = Cluster.zombie_write t.cluster id in
    let (_ : Desim.Sim.handle) =
      Desim.Sim.schedule t.sim ~delay:zombie_cadence (fun () ->
          zombie_probe t id)
    in
    ()
  end

let partition t server ~link =
  record t ~server (Obs.Event.Partition_cut { link = link_name link });
  if not (Hashtbl.mem t.partition_spans server) then begin
    let span =
      Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim)
        ~name:("partition:" ^ link_name link)
        ~cat:"fault" ~server:(Server_id.to_int server) ()
    in
    if span <> Obs.Span.none then Hashtbl.replace t.partition_spans server span
  end;
  t.actions.partition ~domain:None [ server ] ~link;
  (* First probe shortly after the cut, then on a steady cadence. *)
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule t.sim ~delay:1.0 (fun () -> zombie_probe t server)
  in
  ()

let heal t server ~link =
  record t ~server (Obs.Event.Partition_healed { link = link_name link });
  (match Hashtbl.find_opt t.partition_spans server with
  | Some span ->
    Hashtbl.remove t.partition_spans server;
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span
      ~name:("partition:" ^ link_name link)
      ~cat:"fault" ~server:(Server_id.to_int server) ~outcome:"healed" ()
  | None -> ());
  t.actions.heal ~domain:None [ server ]

(* --- Correlated domain faults --- *)

let members t domain =
  match Sharedfs.Topology.servers_of (Cluster.topology t.cluster) domain with
  | Some ids -> ids
  | None ->
    (* Unreachable after [arm]'s validation; kept as a belt for
       hand-built injectors. *)
    invalid_arg
      (Printf.sprintf "Fault.Injector: unknown failure domain %S" domain)

let domain_crash t domain =
  let ids = members t domain in
  record t (Obs.Event.Domain_crash { domain; members = List.length ids });
  if not (Hashtbl.mem t.domain_crash_spans domain) then begin
    let span =
      Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim)
        ~name:("domain-crash:" ^ domain) ~cat:"fault" ()
    in
    if span <> Obs.Span.none then
      Hashtbl.replace t.domain_crash_spans domain span
  end;
  t.actions.crash ~domain:(Some domain) ids

let domain_recover t domain =
  let ids = members t domain in
  record t (Obs.Event.Domain_recover { domain; members = List.length ids });
  (match Hashtbl.find_opt t.domain_crash_spans domain with
  | Some span ->
    Hashtbl.remove t.domain_crash_spans domain;
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span
      ~name:("domain-crash:" ^ domain) ~cat:"fault" ~outcome:"recovered" ()
  | None -> ());
  t.actions.recover ~domain:(Some domain) ids

let domain_partition t domain ~link =
  let ids = members t domain in
  record t
    (Obs.Event.Domain_partition_cut
       { domain; link = link_name link; members = List.length ids });
  if not (Hashtbl.mem t.domain_partition_spans domain) then begin
    let span =
      Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim)
        ~name:("domain-partition:" ^ link_name link ^ ":" ^ domain)
        ~cat:"fault" ()
    in
    if span <> Obs.Span.none then
      Hashtbl.replace t.domain_partition_spans domain span
  end;
  t.actions.partition ~domain:(Some domain) ids ~link;
  (* Every isolated member runs its own zombie-write cadence, exactly
     as a solo partition would. *)
  List.iter
    (fun id ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule t.sim ~delay:1.0 (fun () -> zombie_probe t id)
      in
      ())
    ids

let domain_heal t domain ~link =
  let ids = members t domain in
  record t
    (Obs.Event.Domain_partition_healed
       { domain; link = link_name link; members = List.length ids });
  (match Hashtbl.find_opt t.domain_partition_spans domain with
  | Some span ->
    Hashtbl.remove t.domain_partition_spans domain;
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span
      ~name:("domain-partition:" ^ link_name link ^ ":" ^ domain)
      ~cat:"fault" ~outcome:"healed" ()
  | None -> ());
  t.actions.heal ~domain:(Some domain) ids

let schedule_timeline t ~duration =
  List.iter
    (fun (at, fault) ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at t.sim ~time:at (fun () ->
            match fault with
            | Plan.Crash server -> crash t (Server_id.of_int server)
            | Plan.Recover server -> recover t (Server_id.of_int server)
            | Plan.Delegate_crash -> note_delegate_crash t
            | Plan.Disk_stall { factor; duration = d } ->
              let disk = Cluster.disk t.cluster in
              Sharedfs.Shared_disk.set_stall disk ~factor;
              record t (Obs.Event.Disk_stall_start { factor; duration = d });
              let span =
                Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim)
                  ~name:"disk-stall" ~cat:"fault" ()
              in
              let (_ : Desim.Sim.handle) =
                Desim.Sim.schedule t.sim ~delay:d (fun () ->
                    Sharedfs.Shared_disk.clear_stall disk;
                    record t Obs.Event.Disk_stall_end;
                    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span
                      ~name:"disk-stall" ~cat:"fault" ())
              in
              ()
            | Plan.Partition { server; link } ->
              partition t (Server_id.of_int server) ~link
            | Plan.Heal { server; link } ->
              heal t (Server_id.of_int server) ~link
            | Plan.Domain_crash domain -> domain_crash t domain
            | Plan.Domain_recover domain -> domain_recover t domain
            | Plan.Domain_partition { domain; link } ->
              domain_partition t domain ~link
            | Plan.Domain_heal { domain; link } -> domain_heal t domain ~link)
      in
      ())
    (Plan.timeline t.plan ~duration)

let arm_move_crashes t =
  match Plan.move_crashes t.plan with
  | [] -> ()
  | targets ->
    Cluster.set_on_move_start t.cluster
      (fun ~file_set ~src ~dst ~flush_seconds ~init_seconds ->
        let nth = t.move_seq in
        t.move_seq <- nth + 1;
        List.iter
          (fun (target, role) ->
            if target = nth then
              (* Land the crash strictly inside the window it must
                 interrupt: mid-flush for the source (after the flush
                 finishes the image is safe on the shared disk), and
                 mid-transfer overall for the destination. *)
              let victim, offset =
                match role with
                | `Src -> (src, 0.5 *. flush_seconds)
                | `Dst -> (Some dst, 0.5 *. (flush_seconds +. init_seconds))
              in
              match victim with
              | Some id when offset > 0.0 ->
                ignore file_set;
                let (_ : Desim.Sim.handle) =
                  Desim.Sim.schedule t.sim ~delay:offset (fun () ->
                      crash t id)
                in
                ()
              | Some _ | None -> ())
          targets)

let arm_torn_writes t =
  match Plan.torn_appends t.plan with
  | [] -> ()
  | targets ->
    let ledger = Cluster.ledger t.cluster in
    List.iter (fun nth -> Sharedfs.Ledger.arm_torn ledger ~nth) targets;
    Cluster.set_on_torn t.cluster (fun ~seq ->
        record t (Obs.Event.Ledger_torn { seq }))

let arm ~sim ~cluster ~obs ~duration ~actions plan =
  (* Fail fast: a domain name the topology does not know would
     otherwise only blow up at its scheduled virtual time, deep in the
     run. *)
  (let topo = Cluster.topology cluster in
   List.iter
     (fun domain ->
       if not (Sharedfs.Topology.mem_domain topo domain) then
         invalid_arg
           (Printf.sprintf
              "Fault.Injector.arm: plan references failure domain %S, but \
               the cluster topology only has: %s"
              domain
              (match Sharedfs.Topology.domain_names topo with
              | [] -> "(none)"
              | names -> String.concat ", " names)))
     (Plan.domains plan));
  let t =
    {
      plan;
      sim;
      cluster;
      obs;
      actions;
      counts = Hashtbl.create 8;
      move_seq = 0;
      crash_spans = Hashtbl.create 4;
      partition_spans = Hashtbl.create 4;
      domain_crash_spans = Hashtbl.create 4;
      domain_partition_spans = Hashtbl.create 4;
    }
  in
  schedule_timeline t ~duration;
  arm_move_crashes t;
  arm_torn_writes t;
  t

(* SplitMix64-style avalanche, so that (round, server, attempt) maps to
   an uncorrelated stream regardless of evaluation order. *)
let mix seed round server attempt =
  let h = ref (Int64.of_int seed) in
  let feed v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001b3L
  in
  feed (round * 3 + 1);
  feed ((server * 2) + 1);
  feed (attempt + 1);
  Int64.to_int !h land max_int

let fate t ~round ~server ~attempt =
  let p = Plan.report_loss_probability t.plan in
  let delay_spec = Plan.report_delay t.plan in
  if p <= 0.0 && delay_spec = None then `Deliver 0.0
  else
    let rng =
      Desim.Rng.create
        (mix (Plan.seed t.plan) round (Server_id.to_int server) attempt)
    in
    let lost = p > 0.0 && Desim.Rng.float rng < p in
    if lost then begin
      record t ~server (Obs.Event.Report_lost { attempt });
      (match Obs.Ctx.metrics t.obs with
      | None -> ()
      | Some m ->
        Obs.Metrics.Counter.incr (Obs.Metrics.counter m "reports.lost"));
      `Lost
    end
    else
      match delay_spec with
      | None -> `Deliver 0.0
      | Some (base, jitter) ->
        let delay = base +. (Desim.Rng.float rng *. jitter) in
        if delay > 0.0 then
          record t ~server (Obs.Event.Report_delayed { delay });
        `Deliver delay

let faults_injected t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
