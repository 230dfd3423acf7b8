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

(* [find] builds its key from two ints; here the key is the pair. *)
let pair a b = (a, b)

(* Random active opens, enables, unbinds and lookups on two map
   managers, one looked up with [find] and one with [resolve]: every
   lookup must return the same session, built by the same [make] call.
   There are 32 keys for [find]'s 16 cache slots, so at least 16 of
   them share a slot with another, and a lookup often follows an unbind
   of a key the cache holds. *)
type step = Open of int * int | Enable of int | Unbind of int * int | Look of int * int

let qcheck_find_is_resolve =
  let key = QCheck.Gen.(pair (int_bound 7) (int_bound 3)) in
  let step =
    QCheck.Gen.(
      frequency
        [
          (1, map (fun (a, b) -> Open (a, b)) key);
          (1, map (fun b -> Enable b) (int_bound 3));
          (2, map (fun (a, b) -> Unbind (a, b)) key);
          (6, map (fun (a, b) -> Look (a, b)) key);
        ])
  in
  let show = function
    | Open (a, b) -> Printf.sprintf "open %d,%d" a b
    | Enable b -> Printf.sprintf "enable %d" b
    | Unbind (a, b) -> Printf.sprintf "unbind %d,%d" a b
    | Look (a, b) -> Printf.sprintf "look %d,%d" a b
  in
  Tutil.qtest ~count:200 "find returns what resolve returns"
    (QCheck.make
       ~print:QCheck.Print.(list show)
       QCheck.Gen.(list_size (int_range 1 300) step))
    (fun steps ->
      let ctx_f, by_find, up = fixture () in
      let ctx_r = { made = 0 } and by_resolve = Demux.create 16 ~make in
      let upper = Array.init 4 (fun b -> up (Printf.sprintf "UP%d" b)) in
      List.iteri
        (fun i -> function
          | Open (a, b) ->
              ignore (Demux.open_ by_find ctx_f ~upper:upper.(b) (a, b));
              ignore (Demux.open_ by_resolve ctx_r ~upper:upper.(b) (a, b))
          | Enable b ->
              Demux.enable by_find b upper.(b);
              Demux.enable by_resolve b upper.(b)
          | Unbind (a, b) ->
              Demux.unbind by_find (a, b);
              Demux.unbind by_resolve (a, b)
          | Look (a, b) ->
              let got = Demux.find by_find ctx_f ~key:pair a b b
              and want = Demux.resolve by_resolve ctx_r (a, b) b in
              if got <> want then
                QCheck.Test.fail_reportf "step %d: find and resolve differ" i)
        steps;
      ctx_f.made = ctx_r.made)

(* The active map is a [Hashtbl] of the key, created at the size the
   protocol asks for, and nothing else reorders it: [iter] visits
   bound sessions in the order a bare table given the same binds and
   unbinds does, which is what a reboot hook that walks CHANNEL's
   sessions sees.  The sequence grows the table past several resizes
   and mixes passive opens through [find] with active ones. *)
let iter_keeps_table_order () =
  let ctx, d, up = fixture () in
  let table = Hashtbl.create 16 in
  let upper = up "UPPER" in
  Demux.enable d 17 upper;
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 400 do
    let a = Random.State.int rng 200 and b = 16 + Random.State.int rng 2 in
    match Random.State.int rng 4 with
    | 0 ->
        Demux.unbind d (a, b);
        Hashtbl.remove table (a, b)
    | 1 ->
        let s = Demux.open_ d ctx ~upper (a, b) in
        if not (Hashtbl.mem table (a, b)) then Hashtbl.replace table (a, b) s
    | _ -> (
        match Demux.find d ctx ~key:pair a b b with
        | Some s ->
            if not (Hashtbl.mem table (a, b)) then
              Hashtbl.replace table (a, b) s
        | None -> ())
  done;
  let order = ref [] in
  Demux.iter (fun s -> order := s :: !order) d;
  let want = ref [] in
  Hashtbl.iter (fun _ s -> want := s :: !want) table;
  Tutil.check_bool "some sessions bound" true (Hashtbl.length table > 50);
  Alcotest.(check (list session)) "iter order" !want !order

let () =
  Alcotest.run "demux"
    [
      ( "rule",
        [
          Alcotest.test_case "bound beats enabled" `Quick bound_beats_enabled;
          Alcotest.test_case "passive open once" `Quick passive_open_once;
          Alcotest.test_case "unbound is None" `Quick unbound_is_none;
          Alcotest.test_case "unbind reopens" `Quick unbind_reopens;
          qcheck_find_is_resolve;
          Alcotest.test_case "iter keeps the table's order" `Quick
            iter_keeps_table_order;
        ] );
    ]
