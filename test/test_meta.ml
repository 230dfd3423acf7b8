open Xkernel
module World = Netproto.World
module Meta = Rpc.Meta

let lrpc_top w =
  let n = World.node w 0 in
  let f = Rpc.Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
  let c = Rpc.Channel.create ~host:n.World.host ~lower:(Rpc.Fragment.proto f) () in
  let s = Rpc.Select.create ~host:n.World.host ~channel:c in
  Rpc.Select.proto s

let measured_stacks_adhere () =
  (* Every configuration the paper measures passes the rule check. *)
  let w = World.create () in
  Alcotest.(check (list string)) "L.RPC clean" []
    (List.map (fun i -> i.Meta.rule) (Meta.check [ lrpc_top w ]));
  let w2 = World.create () in
  let n = World.node w2 0 in
  let m =
    Rpc.Sprite_mono.create ~host:n.World.host
      ~lower:(Netproto.Vip.proto n.World.vip)
  in
  Alcotest.(check (list string)) "M.RPC clean" []
    (List.map (fun i -> i.Meta.rule) (Meta.check [ Rpc.Sprite_mono.proto m ]))

(* The Stacks builders as `xkrpc check` runs them: each two-node
   configuration's client graph passes the rule check. *)
let stacks_builders_adhere () =
  let module S = Rpc.Stacks in
  List.iter
    (fun mk ->
      let e = mk (World.create ()) in
      Alcotest.(check (list string)) e.S.config_name []
        (List.map (fun i -> i.Meta.rule) (Meta.check e.S.tops)))
    [
      (fun w -> S.mrpc w ~lower:S.L_eth);
      (fun w -> S.mrpc w ~lower:S.L_ip);
      (fun w -> S.mrpc w ~lower:S.L_vip);
      (fun w -> S.lrpc w);
      S.lrpc_vip_size;
      S.channel_fragment_vip;
    ]

let fig3b_adheres () =
  let w = World.create () in
  let n = World.node w 0 in
  let vaddr = Netproto.Vip_addr.proto n.World.vip_addr in
  let f = Rpc.Fragment.create ~host:n.World.host ~lower:vaddr in
  let vsize =
    Netproto.Vip_size.create ~host:n.World.host ~bulk:(Rpc.Fragment.proto f)
      ~direct:vaddr ~arp:n.World.arp
  in
  let c =
    Rpc.Channel.create ~host:n.World.host ~lower:(Netproto.Vip_size.proto vsize) ()
  in
  let s = Rpc.Select.create ~host:n.World.host ~channel:c in
  Alcotest.(check (list string)) "fig 3(b) clean" []
    (List.map (fun i -> i.Meta.rule) (Meta.check [ Rpc.Select.proto s ]))

let oversized_upper_flagged () =
  (* A protocol claiming 64 KB messages over FRAGMENT (max 16 KB) breaks
     the size-compatibility rule. *)
  let w = World.create () in
  let n = World.node w 0 in
  let f = Rpc.Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
  let greedy =
    Netproto.Probe.create ~host:n.World.host ~lower:(Rpc.Fragment.proto f)
      ~max_msg:65535 ()
  in
  let issues = Meta.check [ Netproto.Probe.proto greedy ] in
  Alcotest.(check bool) "violation found" true
    (List.exists (fun i -> i.Meta.rule = "size-compatibility") issues)

let well_sized_upper_clean () =
  let w = World.create () in
  let n = World.node w 0 in
  let f = Rpc.Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
  let modest =
    Netproto.Probe.create ~host:n.World.host ~lower:(Rpc.Fragment.proto f)
      ~max_msg:16000 ()
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun i -> i.Meta.rule) (Meta.check [ Netproto.Probe.proto modest ]))

let mute_interior_flagged () =
  (* An interior protocol that answers no size questions starves the
     layers above of the information VIP-style decisions need. *)
  let w = World.create () in
  let n = World.node w 0 in
  let mute = Proto.create ~host:n.World.host ~name:"MUTE" () in
  Proto.set_ops mute
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "mute");
      open_enable = (fun ~upper:_ _ -> invalid_arg "mute");
      open_done = (fun ~upper:_ _ -> invalid_arg "mute");
      demux = (fun ~lower:_ _ -> ());
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.declare_below mute [ Netproto.Eth.proto n.World.eth ];
  let top = Proto.create ~host:n.World.host ~name:"TOP" () in
  Proto.set_ops top
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "top");
      open_enable = (fun ~upper:_ _ -> invalid_arg "top");
      open_done = (fun ~upper:_ _ -> invalid_arg "top");
      demux = (fun ~lower:_ _ -> ());
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.declare_below top [ mute ];
  let issues = Meta.check [ top ] in
  Alcotest.(check bool) "answerability violation" true
    (List.exists
       (fun i -> i.Meta.rule = "answerability" && i.Meta.about = "MUTE")
       issues)

let report_rendering () =
  let w = World.create () in
  let clean = Format.asprintf "%a" Meta.pp_report (Meta.check [ lrpc_top w ]) in
  Alcotest.(check bool) "adherence line" true
    (String.length clean > 0 && String.sub clean 0 11 = "composition")

let () =
  Alcotest.run "meta"
    [
      ( "rules",
        [
          Alcotest.test_case "measured stacks adhere" `Quick measured_stacks_adhere;
          Alcotest.test_case "Stacks builders adhere" `Quick
            stacks_builders_adhere;
          Alcotest.test_case "figure 3(b) adheres" `Quick fig3b_adheres;
          Alcotest.test_case "oversized upper flagged" `Quick oversized_upper_flagged;
          Alcotest.test_case "well-sized upper clean" `Quick well_sized_upper_clean;
          Alcotest.test_case "mute interior flagged" `Quick mute_interior_flagged;
          Alcotest.test_case "report rendering" `Quick report_rendering;
        ] );
    ]
