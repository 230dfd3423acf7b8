(* The map manager's single demux rule: bound session, else a passive
   open for the enabled upper protocol, else unbound. *)
open Xkernel

(* Sessions here are (upper protocol name, key, serial) triples; the
   context counts how many sessions [make] has built. *)
type ctx = { mutable made : int }

let make ctx ~upper (peer, proto) =
  ctx.made <- ctx.made + 1;
  (Proto.name upper, (peer, proto), ctx.made)

let fixture () =
  let sim = Sim.create () in
  let host =
    Host.create sim ~name:"h" ~ip:(Addr.Ip.v 10 0 0 1) ~eth:(Addr.Eth.v 1) ()
  in
  let up name = Proto.create ~host ~name () in
  ({ made = 0 }, Demux.create 16 ~make, up)

let session = Alcotest.(triple string (pair int int) int)

let bound_beats_enabled () =
  let ctx, d, up = fixture () in
  let active = Demux.open_ d ctx ~upper:(up "ACTIVE") (1, 17) in
  Demux.enable d 17 (up "PASSIVE");
  Alcotest.(check (option session)) "bound session wins" (Some active)
    (Demux.resolve d ctx (1, 17) 17);
  Tutil.check_int "nothing opened passively" 1 ctx.made

let passive_open_once () =
  let ctx, d, up = fixture () in
  Demux.enable d 17 (up "UPPER");
  let first = Demux.resolve d ctx (2, 17) 17 in
  Alcotest.(check (option session)) "opened for the enabled upper"
    (Some ("UPPER", (2, 17), 1)) first;
  Alcotest.(check (option session)) "later messages hit it" first
    (Demux.resolve d ctx (2, 17) 17);
  Tutil.check_int "one open" 1 ctx.made

let unbound_is_none () =
  let ctx, d, up = fixture () in
  Demux.enable d 17 (up "UPPER");
  Alcotest.(check (option session)) "no session, not enabled" None
    (Demux.resolve d ctx (3, 6) 6);
  Tutil.check_int "nothing opened" 0 ctx.made

let unbind_reopens () =
  let ctx, d, up = fixture () in
  Demux.enable d 17 (up "UPPER");
  ignore (Demux.resolve d ctx (4, 17) 17);
  Demux.unbind d (4, 17);
  Alcotest.(check (option session)) "the next message opens afresh"
    (Some ("UPPER", (4, 17), 2))
    (Demux.resolve d ctx (4, 17) 17)

let () =
  Alcotest.run "demux"
    [
      ( "rule",
        [
          Alcotest.test_case "bound beats enabled" `Quick bound_beats_enabled;
          Alcotest.test_case "passive open once" `Quick passive_open_once;
          Alcotest.test_case "unbound is None" `Quick unbound_is_none;
          Alcotest.test_case "unbind reopens" `Quick unbind_reopens;
        ] );
    ]
