(* Shared helpers for the test suites. *)
open Xkernel

let msg = Alcotest.testable Msg.pp Msg.equal

let ip = Alcotest.testable Addr.Ip.pp Addr.Ip.equal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Run [f] as a fiber in [w] and drive the simulator to completion,
   returning [f]'s result.  Fails the test when a fiber that is not a
   daemon is left parked at the end, [f]'s own ("run_in") or any other:
   a hung fiber. *)
let run_in (w : Netproto.World.t) f =
  let result = ref None in
  Sim.spawn w.Netproto.World.sim ~name:"run_in" (fun () ->
      result := Some (f ()));
  Netproto.World.run w;
  (match Sim.hung w.Netproto.World.sim with
  | [] -> ()
  | names ->
      Alcotest.failf "fibers parked at the end of the world: %s"
        (String.concat ", " names));
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete (deadlock?)"

(* Same for a bare simulator. *)
let run_sim sim f =
  let result = ref None in
  Sim.spawn sim (fun () -> result := Some (f ()));
  Sim.run sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete (deadlock?)"

let stat p name = Control.int_exn (Proto.control p (Control.Get_stat name))

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected RPC failure: %s" what (Rpc.Rpc_error.to_string e)

let body n = String.init n (fun i -> Char.chr (i * 7 mod 256))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Hands [frames] to [p] from below, in a fiber of [w], on the session
   of a stub lower protocol whose peer is [peer]: how a test feeds a
   protocol frames no sender would build. *)
let deliver_from_below (w : Netproto.World.t) ~host ~peer p frames =
  let below = Proto.create ~host ~name:"BELOW" () in
  let lower =
    Proto.make_session below
      {
        Proto.push = ignore;
        pop = ignore;
        s_control =
          (function
          | Control.Get_peer_host -> Control.R_ip peer
          | _ -> Control.Unsupported);
        close = ignore;
      }
  in
  run_in w (fun () -> List.iter (Proto.deliver p ~lower) frames)
