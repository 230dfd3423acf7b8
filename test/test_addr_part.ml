open Xkernel

(* --- Addr --- *)

let ip_roundtrip () =
  let a = Addr.Ip.v 10 1 2 254 in
  Tutil.check_str "to_string" "10.1.2.254" (Addr.Ip.to_string a);
  Alcotest.(check bool) "of_string" true (Addr.Ip.of_string "10.1.2.254" = Some a)

let ip_of_string_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Addr.Ip.of_string s = None))
    [ "10.0.0"; "10.0.0.0.0"; "256.0.0.1"; "a.b.c.d"; ""; "10.0.0.-1" ]

let ip_octet_bounds () =
  Alcotest.(check bool) "octet > 255" true
    (match Addr.Ip.v 300 0 0 1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let ip_networks () =
  let a = Addr.Ip.v 10 0 0 1 and b = Addr.Ip.v 10 0 0 99 in
  let c = Addr.Ip.v 10 0 1 1 in
  Alcotest.(check bool) "same /24" true (Addr.Ip.same_network a b);
  Alcotest.(check bool) "different /24" false (Addr.Ip.same_network a c)

let eth_format () =
  Tutil.check_str "formatting" "08:00:20:01:02:03"
    (Addr.Eth.to_string (Addr.Eth.v 0x080020010203));
  Alcotest.(check bool) "broadcast" true (Addr.Eth.is_broadcast Addr.Eth.broadcast);
  Alcotest.(check bool) "48-bit bound" true
    (match Addr.Eth.v (1 lsl 48) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let vip_type_mapping () =
  (* 256 IP protocol numbers map injectively into the reserved range and
     back (section 3.1's 8-bit -> 16-bit argument). *)
  for p = 0 to 255 do
    let ty = Addr.eth_type_of_ip_proto p in
    Alcotest.(check bool) "in reserved range" true
      (ty >= Addr.vip_eth_type_base && ty < Addr.vip_eth_type_base + 256);
    Tutil.check_int "roundtrip" p (Option.get (Addr.ip_proto_of_eth_type ty))
  done;
  Alcotest.(check bool) "IP's own type is outside the range" true
    (Addr.ip_proto_of_eth_type Addr.eth_type_ip = None);
  Alcotest.(check bool) "bad input rejected" true
    (match Addr.eth_type_of_ip_proto 256 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_ip_roundtrip =
  Tutil.qtest "ip string roundtrip" QCheck.(int_bound 0xffffffff) (fun n ->
      let a = Addr.Ip.of_int32_bits n in
      Addr.Ip.of_string (Addr.Ip.to_string a) = Some a)

(* --- Part --- *)

let participant_accessors () =
  let p =
    [
      Part.Ip (Addr.Ip.v 10 0 0 1);
      Part.Port 53;
      Part.Ip_proto 17;
      Part.Channel 3;
      Part.Command 9;
      Part.Program (100003, 2);
      Part.Procedure 4;
    ]
  in
  Alcotest.(check bool) "ip" true (Part.find_ip p = Some (Addr.Ip.v 10 0 0 1));
  Alcotest.(check bool) "port" true (Part.find_port p = Some 53);
  Alcotest.(check bool) "proto" true (Part.find_ip_proto p = Some 17);
  Alcotest.(check bool) "channel" true (Part.find_channel p = Some 3);
  Alcotest.(check bool) "command" true (Part.find_command p = Some 9);
  Alcotest.(check bool) "program" true (Part.find_program p = Some (100003, 2));
  Alcotest.(check bool) "procedure" true (Part.find_procedure p = Some 4);
  Alcotest.(check bool) "missing eth" true (Part.find_eth p = None)

let first_match_wins () =
  let p = [ Part.Port 1; Part.Port 2 ] in
  Alcotest.(check bool) "front to back" true (Part.find_port p = Some 1);
  let p' = Part.with_component p (Part.Port 0) in
  Alcotest.(check bool) "with_component prepends" true (Part.find_port p' = Some 0)

let peer_required () =
  let ps = Part.v ~local:[ Part.Port 1 ] () in
  Alcotest.(check bool) "no remotes" true (Part.peer_opt ps = None);
  Alcotest.(check bool) "peer raises" true
    (match Part.peer ps with exception Invalid_argument _ -> true | _ -> false);
  let ps2 = Part.v ~local:[] ~remotes:[ [ Part.Port 2 ]; [ Part.Port 3 ] ] () in
  Alcotest.(check bool) "first remote" true
    (Part.find_port (Part.peer ps2) = Some 2)

let ip_conventions () =
  let a = Addr.Ip.v 10 0 0 1 and b = Addr.Ip.v 10 0 0 2 in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let both =
    Part.v ~local:[ Part.Ip a; Part.Ip_proto 17 ]
      ~remotes:[ [ Part.Ip b; Part.Ip_proto 6 ] ] ()
  in
  Alcotest.check Tutil.ip "peer ip" b (Part.peer_ip both);
  Tutil.check_int "peer's protocol preferred" 6 (Part.ip_proto both);
  let local_only =
    Part.v ~local:[ Part.Ip a; Part.Ip_proto 17 ] ~remotes:[ [ Part.Ip b ] ] ()
  in
  Tutil.check_int "falls back to local" 17 (Part.ip_proto local_only);
  Tutil.check_int "enable set has no peer" 93 (Part.ip_proto (Part.ip_enable 93));
  Tutil.check_bool "no protocol raises" true
    (raises (fun () ->
         Part.ip_proto (Part.v ~local:[ Part.Ip a ] ~remotes:[ [ Part.Ip b ] ] ())));
  Tutil.check_bool "no peer address raises" true
    (raises (fun () -> Part.peer_ip (Part.v ~local:[ Part.Ip a ] ~remotes:[ [] ] ())));
  Tutil.check_bool "no peer raises" true
    (raises (fun () -> Part.peer_ip (Part.ip_enable 17)));
  let o = Part.ip_open ~local:a ~peer:b 92 in
  Alcotest.(check bool) "open: local" true
    (Part.find_ip o.Part.local = Some a && Part.find_ip_proto o.Part.local = Some 92);
  Alcotest.check Tutil.ip "open: peer" b (Part.peer_ip o);
  Tutil.check_int "open: peer protocol" 92 (Part.ip_proto o);
  Alcotest.(check bool) "enable: local only" true
    ((Part.ip_enable 92).Part.remotes = [])

let printing () =
  let s =
    Format.asprintf "%a" Part.pp
      (Part.v
         ~local:[ Part.Ip (Addr.Ip.v 10 0 0 1); Part.Ip_proto 17 ]
         ~remotes:[ [ Part.Any ] ]
         ())
  in
  Alcotest.(check bool) "mentions ip" true
    (let contains hay needle =
       let ln = String.length needle and lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains s "10.0.0.1" && contains s "ipproto:17" && contains s "*")

(* --- Control --- *)

let control_accessors () =
  Tutil.check_int "int" 5 (Control.int_exn (Control.R_int 5));
  Alcotest.(check bool) "bool" true (Control.bool_exn (Control.R_bool true));
  Alcotest.(check bool) "shape mismatch raises" true
    (match Control.int_exn Control.R_unit with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "int_opt on other" true (Control.int_opt Control.R_unit = None)

let control_via_chain () =
  let h1 = function Control.Get_mtu -> Control.R_int 1500 | _ -> Control.Unsupported in
  let h2 = function Control.Get_my_port -> Control.R_int 9 | _ -> Control.Unsupported in
  Tutil.check_int "first handler" 1500
    (Control.int_exn (Proto.control_via [ h1; h2 ] Control.Get_mtu));
  Tutil.check_int "second handler" 9
    (Control.int_exn (Proto.control_via [ h1; h2 ] Control.Get_my_port));
  Alcotest.(check bool) "nobody answers" true
    (Proto.control_via [ h1; h2 ] Control.Get_boot_id = Control.Unsupported)

let control_vocabulary_size () =
  (* "on the order of two dozen" *)
  Alcotest.(check bool) "about two dozen opcodes" true
    (Control.op_count >= 20 && Control.op_count <= 36)

(* --- Stats --- *)

let stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.set s "b" 5;
  Tutil.check_int "incr" 2 (Stats.get s "a");
  Tutil.check_int "set" 5 (Stats.get s "b");
  Tutil.check_int "missing" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int))) "sorted list"
    [ ("a", 2); ("b", 5) ] (Stats.to_list s);
  (match Stats.control s (Control.Get_stat "a") with
  | Control.R_int 2 -> ()
  | _ -> Alcotest.fail "control get_stat");
  ignore (Stats.control s Control.Flush_cache);
  Tutil.check_int "flushed" 0 (Stats.get s "a")

(* --- Host --- *)

let host_reboot () =
  let sim = Sim.create () in
  let h = Host.create sim ~name:"h" ~ip:(Addr.Ip.v 10 0 0 1) ~eth:(Addr.Eth.v 5) () in
  let b0 = h.Host.boot_id in
  Host.reboot h;
  Tutil.check_int "boot id bumps" (b0 + 1) h.Host.boot_id

let () =
  Alcotest.run "addr-part-control"
    [
      ( "addr",
        [
          Alcotest.test_case "ip roundtrip" `Quick ip_roundtrip;
          Alcotest.test_case "ip parse rejects" `Quick ip_of_string_rejects;
          Alcotest.test_case "ip octet bounds" `Quick ip_octet_bounds;
          Alcotest.test_case "networks" `Quick ip_networks;
          Alcotest.test_case "eth formatting" `Quick eth_format;
          Alcotest.test_case "VIP type mapping" `Quick vip_type_mapping;
          prop_ip_roundtrip;
        ] );
      ( "part",
        [
          Alcotest.test_case "accessors" `Quick participant_accessors;
          Alcotest.test_case "first match wins" `Quick first_match_wins;
          Alcotest.test_case "peer required" `Quick peer_required;
          Alcotest.test_case "IP-keyed conventions" `Quick ip_conventions;
          Alcotest.test_case "printing" `Quick printing;
        ] );
      ( "control",
        [
          Alcotest.test_case "typed accessors" `Quick control_accessors;
          Alcotest.test_case "control_via chain" `Quick control_via_chain;
          Alcotest.test_case "vocabulary size" `Quick control_vocabulary_size;
        ] );
      ( "stats-host",
        [
          Alcotest.test_case "counters" `Quick stats_counters;
          Alcotest.test_case "host reboot" `Quick host_reboot;
        ] );
    ]
