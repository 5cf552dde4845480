(* Failure-domain topology: validation, the flat default, cluster
   wiring, rack chunking, the ANU domain-spread constraint and the
   injector's fail-fast domain resolution. *)

open Sharedfs
module Id = Server_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ids l = List.map Id.of_int l

let rack name servers = { Topology.name; kind = Topology.Rack; servers }

let invalid_arg_message f =
  match f () with
  | exception Invalid_argument m -> m
  | _ -> "<no exception raised>"

let test_make_validation () =
  check_string "empty domain list"
    "Topology.make: at least one domain is required"
    (invalid_arg_message (fun () -> ignore (Topology.make [])));
  check_string "empty name" "Topology.make: domain names must be non-empty"
    (invalid_arg_message (fun () ->
         ignore (Topology.make [ rack "" (ids [ 0 ]) ])));
  check_string "duplicate name" "Topology.make: duplicate domain name \"r\""
    (invalid_arg_message (fun () ->
         ignore
           (Topology.make [ rack "r" (ids [ 0 ]); rack "r" (ids [ 1 ]) ])));
  check_string "empty member list"
    "Topology.make: domain \"r\" has no servers"
    (invalid_arg_message (fun () -> ignore (Topology.make [ rack "r" [] ])));
  check_string "server in two domains"
    "Topology.make: server 1 is in both \"a\" and \"b\""
    (invalid_arg_message (fun () ->
         ignore
           (Topology.make [ rack "a" (ids [ 0; 1 ]); rack "b" (ids [ 1 ]) ])))

let test_accessors () =
  let t = Topology.make [ rack "a" (ids [ 3; 1 ]); rack "b" (ids [ 0 ]) ] in
  check_bool "not flat" false (Topology.is_flat t);
  check_int "two domains" 2 (Topology.domain_count t);
  check_bool "names in declaration order" true
    (Topology.domain_names t = [ "a"; "b" ]);
  check_bool "mem_domain" true
    (Topology.mem_domain t "a" && not (Topology.mem_domain t "zzz"));
  check_bool "servers_of keeps declaration order" true
    (Topology.servers_of t "a" = Some (ids [ 3; 1 ]));
  check_bool "servers_of unknown" true (Topology.servers_of t "zzz" = None);
  check_bool "domain_of" true
    (Topology.domain_of t (Id.of_int 1) = Some "a"
    && Topology.domain_of t (Id.of_int 0) = Some "b"
    && Topology.domain_of t (Id.of_int 9) = None);
  check_bool "all_servers sorted" true (Topology.all_servers t = ids [ 0; 1; 3 ])

let test_flat () =
  let t = Topology.flat ~servers:(ids [ 2; 0; 1 ]) in
  check_bool "flat is flat" true (Topology.is_flat t);
  check_bool "one domain named flat" true
    (Topology.domain_names t = [ "flat" ]);
  check_bool "every server assigned" true
    (List.for_all
       (fun id -> Topology.domain_of t id = Some "flat")
       (ids [ 0; 1; 2 ]));
  (* The degenerate empty cluster still yields a (vacuously flat)
     topology rather than raising. *)
  let empty = Topology.flat ~servers:[] in
  check_bool "empty flat is flat" true (Topology.is_flat empty);
  check_int "empty flat has no domains" 0 (Topology.domain_count empty)

let make_cluster ?topology () =
  let sim = Desim.Sim.create () in
  let disk = Shared_disk.create () in
  let catalog = File_set.Catalog.create [ "a"; "b"; "c"; "d" ] in
  let servers = List.map (fun i -> (Id.of_int i, 1.0)) [ 0; 1; 2 ] in
  Cluster.create sim ~disk ~catalog ~series_interval:10.0 ~servers ?topology ()

let test_cluster_wiring () =
  (* No topology: the cluster defaults to flat over its own servers,
     so every pre-topology call site is unchanged. *)
  let c = make_cluster () in
  check_bool "default is flat" true (Topology.is_flat (Cluster.topology c));
  check_bool "flat covers the cluster" true
    (Topology.all_servers (Cluster.topology c) = ids [ 0; 1; 2 ]);
  let topo = Topology.make [ rack "a" (ids [ 0 ]); rack "b" (ids [ 1; 2 ]) ] in
  let c2 = make_cluster ~topology:topo () in
  check_bool "explicit topology exposed" true
    (Topology.domain_names (Cluster.topology c2) = [ "a"; "b" ]);
  (* A topology naming a server the cluster does not have is a
     configuration error, caught at creation. *)
  let bad = Topology.make [ rack "a" (ids [ 0; 7 ]) ] in
  check_string "foreign server rejected"
    "Cluster.create: topology server 7 is not in the cluster"
    (invalid_arg_message (fun () -> ignore (make_cluster ~topology:bad ())))

let test_rack_topology_chunking () =
  let sizes t =
    List.map
      (fun d -> List.length d.Topology.servers)
      (Topology.domains t)
  in
  let t2 = Experiments.Scenario.rack_topology ~domains:2 () in
  check_bool "5 over 2 racks is 2+3" true (sizes t2 = [ 2; 3 ]);
  check_bool "paper topology matches" true
    (Topology.servers_of t2 "rack0" = Some (ids [ 0; 1 ])
    && Topology.servers_of t2 "rack1" = Some (ids [ 2; 3; 4 ]));
  let t3 = Experiments.Scenario.rack_topology ~domains:3 () in
  check_bool "5 over 3 racks is 1+2+2" true (sizes t3 = [ 1; 2; 2 ]);
  let t5 = Experiments.Scenario.rack_topology ~domains:5 () in
  check_bool "5 over 5 racks is singletons" true
    (sizes t5 = [ 1; 1; 1; 1; 1 ]);
  check_bool "zero domains rejected" true
    (match Experiments.Scenario.rack_topology ~domains:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "more domains than servers rejected" true
    (match Experiments.Scenario.rack_topology ~domains:6 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_injector_rejects_unknown_domain () =
  (* A plan referencing a domain the cluster's topology lacks must
     fail at arm time, before any fault fires. *)
  let c = make_cluster () in
  let sim = Cluster.sim c in
  let plan =
    Fault.Plan.make ~seed:1
      [ Fault.Plan.Domain_crash_at { at = 5.0; domain = "rack9" } ]
  in
  let nop ~domain:_ _ = () in
  let actions =
    {
      Fault.Injector.crash = nop;
      recover = nop;
      partition = (fun ~domain:_ _ ~link:_ -> ());
      heal = nop;
      crash_delegate = (fun () -> ());
    }
  in
  let msg =
    invalid_arg_message (fun () ->
        ignore
          (Fault.Injector.arm ~sim ~cluster:c ~obs:Obs.Ctx.null ~duration:100.0
             ~actions plan))
  in
  check_bool "arm names the missing domain and the real ones" true
    (let has needle =
       let n = String.length needle and m = String.length msg in
       let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
       at 0
     in
     has "rack9" && has "flat")

let test_anu_domain_spread_enforced () =
  (* Two racks over five equal servers: rack0 = {0}, rack1 = {1..4}.
     Feed tuning rounds that, unconstrained, would hand rack1 nearly
     the whole mapped half; the spread cap must clamp rack1 at
     (4/5 + 0.1) of the mapped measure while the unconstrained twin
     sails past it. *)
  let family = Hashlib.Hash_family.create ~seed:5 in
  let servers = ids [ 0; 1; 2; 3; 4 ] in
  let topo =
    Topology.make [ rack "rack0" (ids [ 0 ]); rack "rack1" (ids [ 1; 2; 3; 4 ]) ]
  in
  let run ~domain_spread =
    let config =
      {
        Placement.Anu.default_config with
        heuristics = Placement.Heuristics.none;
        domain_spread;
      }
    in
    let t = Placement.Anu.create ~config ~topology:topo ~family ~servers () in
    (* Server 0 slow (high latency), the rack1 four fast: repeated
       rounds shrink region 0 toward the floor. *)
    let report id latency =
      {
        Delegate.server = Id.of_int id;
        speed_hint = 1.0;
        report =
          { Server.mean_latency = latency; max_latency = latency; requests = 100 };
      }
    in
    for _ = 1 to 12 do
      Placement.Anu.rebalance t
        {
          Placement.Policy.time = 0.0;
          reports =
            [
              report 0 100.0; report 1 1.0; report 2 1.0; report 3 1.0;
              report 4 1.0;
            ];
          future_demand = lazy [];
        }
    done;
    let measures = Placement.Region_map.measures (Placement.Anu.region_map t) in
    List.fold_left
      (fun acc (id, m) -> if Id.to_int id > 0 then acc +. m else acc)
      0.0 measures
  in
  let constrained = run ~domain_spread:(Some 0.1) in
  let unconstrained = run ~domain_spread:None in
  (* Cap: (4/5 + 0.1) x 0.5 = 0.45 of the unit interval. *)
  check_bool "constrained rack1 is capped" true (constrained <= 0.45 +. 1e-9);
  check_bool "unconstrained rack1 exceeds the cap" true
    (unconstrained > 0.45 +. 1e-6);
  check_bool "flat topology never clamps" true
    (let flat_t =
       Placement.Anu.create ~family ~servers ()
     in
     Topology.is_flat (Placement.Anu.topology flat_t))

let suite =
  [
    Alcotest.test_case "make: validation" `Quick test_make_validation;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "flat default" `Quick test_flat;
    Alcotest.test_case "cluster wiring" `Quick test_cluster_wiring;
    Alcotest.test_case "rack_topology chunking" `Quick
      test_rack_topology_chunking;
    Alcotest.test_case "injector rejects unknown domain" `Quick
      test_injector_rejects_unknown_domain;
    Alcotest.test_case "anu domain spread enforced" `Quick
      test_anu_domain_spread_enforced;
  ]
