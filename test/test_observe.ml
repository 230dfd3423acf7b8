(* The observability layer: the stats registry, JSON export, and the
   per-layer packet/crossing accounting that reproduces the paper's
   section 4.2 counts. *)
open Xkernel
module World = Netproto.World
module Stacks = Rpc.Stacks

(* -------------------------------------------------------------------- *)
(* A strict recursive-descent JSON validator — just enough to assert
   that what we emit is well-formed without a JSON dependency. *)

exception Bad of string

let validate s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise (Bad "unexpected end") else s.[!pos] in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then
      raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    else advance ()
  in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then begin
      advance ();
      skip_ws ()
    end
  in
  let literal lit = String.iter expect lit in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
              advance ();
              go ()
          | 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                | _ -> raise (Bad "bad \\u escape")
              done;
              go ()
          | _ -> raise (Bad "bad escape"))
      | c when Char.code c < 0x20 -> raise (Bad "raw control char in string")
      | _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    if not (is_num (peek ())) then raise (Bad "number expected");
    while !pos < n && is_num s.[!pos] do
      advance ()
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | c -> raise (Bad (Printf.sprintf "unexpected %c" c))
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> raise (Bad "expected , or } in object")
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems ()
        | ']' -> advance ()
        | _ -> raise (Bad "expected , or ] in array")
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage")

let check_valid what s =
  match validate s with
  | () -> ()
  | exception Bad why -> Alcotest.failf "%s: invalid JSON (%s): %s" what why s

(* -------------------------------------------------------------------- *)

let json_serializer () =
  let doc =
    Json.(
      Obj
        [
          ("a", Int 1);
          ("s", Str "he\"llo\nworld");
          ("f", Float 1.5);
          ("nan", Float Float.nan);
          ("l", Arr [ Bool true; Null ]);
          ("e", Obj []);
        ])
  in
  let s = Json.to_string doc in
  check_valid "serializer output" s;
  Tutil.check_str "exact rendering"
    {|{"a":1,"s":"he\"llo\nworld","f":1.5,"nan":null,"l":[true,null],"e":{}}|}
    s

let registry_dump_and_find () =
  Stats.reset_registry ();
  let anon = Stats.create () in
  Stats.incr anon "invisible";
  let s = Stats.create ~name:"test/T" () in
  Stats.incr s "a";
  Stats.set s "b" 3;
  (match Stats.find "test/T" with
  | Some t -> Tutil.check_int "find reads the table" 1 (Stats.get t "a")
  | None -> Alcotest.fail "named table not registered");
  Alcotest.(check bool) "anonymous tables stay out" true
    (Stats.find "invisible" = None);
  (match Stats.dump () with
  | [ ("test/T", counters) ] ->
      Alcotest.(check (list (pair string int)))
        "sorted counters"
        [ ("a", 1); ("b", 3) ]
        counters
  | d -> Alcotest.failf "expected one registered table, got %d" (List.length d));
  check_valid "registry json" (Json.to_string (Stats.json ()))

(* Pre-resolved counter handles (Stats.counter/tick/bump/value) must be
   observationally identical to the string API — same values read back
   either way, and byte-identical registry JSON from an equivalent
   program. *)
let counter_handles () =
  Stats.reset_registry ();
  let a = Stats.create ~name:"test/A" () in
  let ca = Stats.counter a "hits" in
  Stats.tick ca;
  Stats.incr a "hits";
  Stats.bump ca 3;
  Tutil.check_int "string API sees handle increments" 5 (Stats.get a "hits");
  Tutil.check_int "handle sees string increments" 5 (Stats.value ca);
  (* A handle resolved but never ticked stays out of the dump, exactly
     like a name never touched through the string API. *)
  let _idle = Stats.counter a "idle" in
  (match Stats.dump () with
  | [ ("test/A", [ ("hits", 5) ]) ] -> ()
  | d -> Alcotest.failf "unexpected dump shape (%d tables)" (List.length d));
  (* a reset (Flush_cache) zeroes in place, so handles resolved before
     it stay valid *)
  ignore (Stats.control a Control.Flush_cache);
  Tutil.check_int "reset zeroes through handle" 0 (Stats.value ca);
  Stats.tick ca;
  Tutil.check_int "handle live after reset" 1 (Stats.value ca)

let counter_handle_dump_identical () =
  let dump_of f =
    Stats.reset_registry ();
    let t = Stats.create ~name:"test/H" () in
    f t;
    Json.to_string (Stats.json ())
  in
  let via_strings =
    dump_of (fun t ->
        Stats.incr t "x";
        Stats.set t "y" 5;
        Stats.incr t "x";
        (* set 0 still materializes the counter in the dump *)
        Stats.set t "zero" 0)
  in
  let via_handles =
    dump_of (fun t ->
        let x = Stats.counter t "x" and y = Stats.counter t "y" in
        let z = Stats.counter t "zero" in
        Stats.tick x;
        Stats.bump y 5;
        Stats.tick x;
        Stats.bump z 0)
  in
  Tutil.check_str "registry JSON byte-identical" via_strings via_handles

(* Per-call counter deltas of one null RPC over the layered stack
   (SELECT-CHANNEL-FRAGMENT-VIP-ETH), after a warm-up call has opened
   every session and resolved ARP.  This pins the packet/crossing
   counts behind the paper's section 4.2 analysis: a null call is one
   request frame and one reply frame, each crossing every layer once. *)
let null_rpc_layer_counts () =
  Stats.reset_registry ();
  let w = World.create () in
  let e = Stacks.lrpc w in
  let call () =
    ignore
      (Tutil.ok_exn "null call"
         (Tutil.run_in w (fun () -> e.Stacks.call ~command:Stacks.cmd_null Msg.empty)))
  in
  call ();
  (* warmed up: sessions open, ARP resolved *)
  let table name =
    match Stats.find name with
    | Some t -> t
    | None -> Alcotest.failf "no registered stats table %s" name
  in
  let watched =
    [
      ("h0.0/CHANNEL", "req-tx", 1);
      ("h0.0/CHANNEL", "reply-rx", 1);
      ("h0.0/CHANNEL", "pushes", 0); (* Select calls Channel.call directly *)
      ("h0.0/CHANNEL", "demuxes", 1);
      ("h0.0/CHANNEL", "crossings", 1);
      ("h0.0/FRAGMENT", "pushes", 1);
      ("h0.0/FRAGMENT", "demuxes", 1);
      ("h0.0/FRAGMENT", "crossings", 2);
      ("h0.0/FRAGMENT", "tx-frag", 1);
      ("h0.0/FRAGMENT", "rx-msg", 1);
      ("h0.0/VIP", "pushes", 1);
      ("h0.0/VIP", "demuxes", 1);
      ("h0.0/VIP", "crossings", 2);
      ("h0.0/ETH", "pushes", 1);
      ("h0.0/ETH", "rx", 1);
      ("h0.1/SELECT", "demuxes", 1);
      ("h0.1/SELECT", "handled", 1);
      ("h0.1/CHANNEL", "req-rx", 1);
      ("h0.1/CHANNEL", "reply-tx", 1);
      ("h0.1/CHANNEL", "pushes", 1); (* the reply, pushed by SELECT *)
      ("h0.1/CHANNEL", "demuxes", 1);
      ("h0.1/FRAGMENT", "pushes", 1);
      ("h0.1/FRAGMENT", "demuxes", 1);
      ("h0.1/ETH", "pushes", 1);
      ("h0.1/ETH", "rx", 1);
    ]
  in
  let snapshot () =
    List.map (fun (tbl, key, _) -> Stats.get (table tbl) key) watched
  in
  let before = snapshot () in
  let frames_before = (Wire.stats w.World.wire).Wire.frames in
  call ();
  let frames_after = (Wire.stats w.World.wire).Wire.frames in
  Tutil.check_int "a null RPC is exactly two frames" 2
    (frames_after - frames_before);
  List.iter2
    (fun (tbl, key, expect) b ->
      Tutil.check_int
        (Printf.sprintf "%s %s per null call" tbl key)
        expect
        (Stats.get (table tbl) key - b))
    watched before;
  (* The full dump must be valid JSON and mention the crossing counters. *)
  let j = Json.to_string (Stats.json ()) in
  check_valid "stats dump" j;
  Alcotest.(check bool) "dump carries crossings" true
    (let needle = {|"crossings"|} in
     let nl = String.length needle in
     let rec search i =
       if i + nl > String.length j then false
       else if String.sub j i nl = needle then true
       else search (i + 1)
     in
     search 0)

let () =
  Alcotest.run "observe"
    [
      ( "json",
        [
          Alcotest.test_case "serializer" `Quick json_serializer;
          Alcotest.test_case "registry dump and find" `Quick
            registry_dump_and_find;
        ] );
      ( "counter handles",
        [
          Alcotest.test_case "handle and string API agree" `Quick
            counter_handles;
          Alcotest.test_case "dump byte-identical via handles" `Quick
            counter_handle_dump_identical;
        ] );
      ( "layer accounting",
        [
          Alcotest.test_case "null RPC over L.RPC" `Quick
            null_rpc_layer_counts;
        ] );
    ]
