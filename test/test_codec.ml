open Xkernel

let roundtrip_fixed () =
  let w = Codec.W.create 17 in
  Codec.W.u8 w 0xab;
  Codec.W.u16 w 0xbeef;
  Codec.W.u32 w 0xdeadbeef;
  Codec.W.u48 w 0x080020010203;
  Codec.W.bytes w "tail";
  let s = Codec.W.contents w in
  let m = Msg.of_string s in
  Tutil.check_int "u8" 0xab (Msg.u8 m 0);
  Tutil.check_int "u16" 0xbeef (Msg.u16 m 1);
  Tutil.check_int "u32" 0xdeadbeef (Msg.u32 m 3);
  Tutil.check_int "u48" 0x080020010203 (Msg.u48 m 7);
  let r = Codec.R.of_string s in
  Tutil.check_int "R.u16" 0xabbe (Codec.R.u16 r);
  Tutil.check_int "R.u32" 0xefdeadbe (Codec.R.u32 r);
  ignore (Codec.R.bytes r 7);
  Tutil.check_str "bytes" "tail" (Codec.R.bytes r 4);
  Tutil.check_int "remaining" 0 (Codec.R.remaining r)

let truncation () =
  let r = Codec.R.of_string "\x01\x02\x03" in
  Tutil.check_int "u16 ok" 0x102 (Codec.R.u16 r);
  Alcotest.check_raises "u16 past end" Codec.R.Truncated (fun () ->
      ignore (Codec.R.u16 r));
  let r2 = Codec.R.of_string "\x01\x02\x03" in
  Alcotest.check_raises "u32 short" Codec.R.Truncated (fun () ->
      ignore (Codec.R.u32 r2))

let masking () =
  let w = Codec.W.create 3 in
  Codec.W.u8 w 0x1ff;
  Codec.W.u16 w 0x1ffff;
  let m = Msg.of_string (Codec.W.contents w) in
  Tutil.check_int "u8 masks" 0xff (Msg.u8 m 0);
  Tutil.check_int "u16 masks" 0xffff (Msg.u16 m 1)

let pos_tracking () =
  let r = Codec.R.of_string "abcdef" in
  Tutil.check_int "remaining 6" 6 (Codec.R.remaining r);
  ignore (Codec.R.u16 r);
  Tutil.check_int "remaining" 4 (Codec.R.remaining r)

(* The writer fills exactly the size it was created with. *)
let exact_size () =
  let w = Codec.W.create 2 in
  Codec.W.u8 w 1;
  Alcotest.check_raises "contents before full"
    (Invalid_argument "Codec.W.contents") (fun () ->
      ignore (Codec.W.contents w));
  Alcotest.(check bool) "u16 past end" true
    (match Codec.W.u16 w 0xffff with
    | () -> false
    | exception Invalid_argument _ -> true);
  Codec.W.u8 w 2;
  Tutil.check_str "full" "\x01\x02" (Codec.W.contents w)

let checksum_zero () =
  Tutil.check_int "empty" 0xffff (Codec.ip_checksum "");
  Tutil.check_int "zeros" 0xffff (Codec.ip_checksum "\x00\x00\x00\x00")

(* A header whose checksum field holds ip_checksum of the rest sums to
   0xffff — the standard IP verification identity. *)
let checksum_verifies () =
  let base =
    "\x45\x00\x00\x1c\x00\x01\x00\x00\x20\x11\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02"
  in
  let ck = Codec.ip_checksum base in
  let b = Bytes.of_string base in
  Bytes.set_uint8 b 10 (ck lsr 8);
  Bytes.set_uint8 b 11 (ck land 0xff);
  Tutil.check_int "sums to ffff" 0xffff
    (Msg.ones_complement_sum (Msg.of_string (Bytes.to_string b)))

let checksum_catches_flip () =
  let base = Tutil.body 20 in
  let ck = Codec.ip_checksum base in
  let corrupt = Bytes.of_string base in
  Bytes.set_uint8 corrupt 5 (Bytes.get_uint8 corrupt 5 lxor 0xff);
  Alcotest.(check bool)
    "different checksum" false
    (Codec.ip_checksum (Bytes.to_string corrupt) = ck)

let odd_length () =
  Tutil.check_int "odd == padded even"
    (Msg.ones_complement_sum (Msg.of_string "abc"))
    (Msg.ones_complement_sum (Msg.of_string "abc\x00"))

let prop_u32_roundtrip =
  Tutil.qtest "u32 roundtrip" QCheck.(int_bound 0xffffffff) (fun n ->
      let w = Codec.W.create 4 in
      Codec.W.u32 w n;
      Codec.R.u32 (Codec.R.of_string (Codec.W.contents w)) = n)

let prop_checksum_identity =
  Tutil.qtest "checksum identity over even-length strings"
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      let s = if String.length s mod 2 = 0 then s else s ^ "\x00" in
      let ck = Codec.ip_checksum s in
      let full =
        s
        ^ String.make 1 (Char.chr (ck lsr 8))
        ^ String.make 1 (Char.chr (ck land 0xff))
      in
      Msg.ones_complement_sum (Msg.of_string full) = 0xffff)

(* --- protocol headers: write once, read in place --- *)

module F = Rpc.Wire_fmt.Fragment
module C = Rpc.Wire_fmt.Channel
module S = Rpc.Wire_fmt.Select
module H = Rpc.Wire_fmt.Sprite

let ip v = Addr.Ip.of_int32_bits v

(* Random field values (each masked to its width by the header built
   from them) and a body to push the header onto. *)
let gen_fields =
  QCheck.(
    pair
      (array_of_size (Gen.return 14) (int_bound 0xffffffff))
      (string_of_size (Gen.int_range 0 40)))

(* [read (Msg.push body (encode h)) = Some h], also with the frame cut
   into two leaves at every byte; the encoded header less its last byte
   is a runt. *)
let round_trip name ~make ~encode ~read =
  Tutil.qtest name gen_fields (fun (v, body) ->
      let h = make v in
      let hdr = encode h in
      let frame = Msg.push (Msg.of_string body) hdr in
      let n = Msg.length frame in
      List.for_all
        (fun k ->
          read (Msg.append (Msg.sub frame 0 k) (Msg.sub frame k (n - k)))
          = Some h)
        (List.init (n + 1) Fun.id)
      && read (Msg.of_string (String.sub hdr 0 (String.length hdr - 1)))
         = None)

(* FRAGMENT_HDR has no record: its fields, masked to their widths, in
   [encode]'s order, written with [encode] and read back with the
   in-place field readers. *)
let fragment_of v =
  [|
    v.(0) land 0xff; v.(1); v.(2); v.(3); v.(4);
    v.(5) land 0xffff; v.(6) land 0xffff; v.(7) land 0xffff;
  |]

let fragment_encode f =
  F.encode ~typ:f.(0) ~clnt:(ip f.(1)) ~srvr:(ip f.(2)) ~proto:f.(3) ~seq:f.(4)
    ~num:f.(5) ~mask:f.(6) ~len:f.(7)

let fragment_read m =
  if Msg.length m < F.bytes then None
  else
    Some
      [|
        F.typ m; Addr.Ip.to_int (F.clnt_host m); Addr.Ip.to_int (F.srvr_host m);
        F.protocol_num m; F.sequence_num m; F.num_frags m; F.frag_mask m;
        F.len m;
      |]

(* The deadline flag bit (0x10) follows the extension word, as [encode]
   sets it. *)
let channel_of v =
  let stamped = v.(6) land 1 = 1 in
  {
    C.flags = (v.(0) land 0xffef) lor if stamped then 0x10 else 0;
    channel = v.(1) land 0xffff;
    protocol_num = v.(2);
    sequence_num = v.(3);
    error = v.(4) land 0xffff;
    boot_id = v.(5);
    deadline_us = (if stamped then v.(7) else -1);
  }

let select_of v =
  { S.typ = v.(0) land 0xff; command = v.(1) land 0xffff; status = v.(2) land 0xff }

let sprite_of v =
  let u16 i = v.(i) land 0xffff in
  {
    H.flags = u16 0;
    clnt_host = ip v.(1);
    srvr_host = ip v.(2);
    channel = u16 3;
    srvr_process = u16 4;
    sequence_num = v.(5);
    num_frags = u16 6;
    frag_mask = u16 7;
    command = u16 8;
    boot_id = v.(9);
    data1_sz = u16 10;
    data2_sz = u16 11;
    data1_off = u16 12;
    data2_off = u16 13;
  }

let header_props =
  [
    round_trip "FRAGMENT_HDR" ~make:fragment_of ~encode:fragment_encode
      ~read:fragment_read;
    round_trip "CHANNEL_HDR" ~make:channel_of ~encode:C.encode ~read:C.read;
    round_trip "SELECT_HDR" ~make:select_of ~encode:S.encode ~read:S.read;
    round_trip "SPRITE_HDR" ~make:sprite_of ~encode:H.encode ~read:H.read;
    round_trip "shard stamp"
      ~make:(fun v ->
        { S.shard = v.(0) land 0xffff; epoch = v.(1); version = v.(2) })
      ~encode:S.encode_stamp ~read:S.read_stamp;
    round_trip "wrong-shard version"
      ~make:(fun v -> v.(0))
      ~encode:(fun version -> S.encode_wrong_shard ~version)
      ~read:S.read_wrong_shard;
  ]

(* Allocation budgets for the header path, in minor words per operation
   over 10k operations (see test_sim's for the method).  OCaml 5.1.1
   measures nothing for an in-place read of a pushed header (FRAGMENT's
   field readers are such reads), the record and its option for a
   header read (CHANNEL 8 + 2, SELECT 4 + 2), and for an encode the header bytes (4 words for
   FRAGMENT's 23 and CHANNEL's 18, 3 for ETH's 14) plus the writer (3).
   The 0.01 over each covers the boxed float of [Gc.minor_words]. *)
let words_per_op n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let measured = ref []

(* Every FRAGMENT_HDR field FRAGMENT reads on receive, summed. *)
let fragment_fields m =
  F.typ m + Addr.Ip.to_int (F.clnt_host m) + Addr.Ip.to_int (F.srvr_host m)
  + F.protocol_num m + F.sequence_num m + F.num_frags m + F.frag_mask m
  + F.len m

let alloc_budget () =
  let n = 10_000 in
  let fh = fragment_of (Array.init 14 (fun i -> 0x01020304 * (i + 1))) in
  let ch = { (channel_of (Array.make 14 7)) with C.deadline_us = -1 } in
  let sh = select_of [| 1; 2; 0 |] in
  (* A frame the size of a null call's (pushed onto a small leaf, so
     flattened into one) and one over a 1 KB body (a [Cat]). *)
  let small = Msg.push (Msg.of_string "ping") (C.encode ch) in
  let large = Msg.push (Msg.fill 1024 'x') (fragment_encode fh) in
  let keep x = ignore (Sys.opaque_identity x) in
  let figures =
    [
      ( "Msg.u16/u32/u48, pushed header",
        0.01,
        words_per_op n (fun () ->
            keep (Msg.u16 small 0 + Msg.u32 small 4 + Msg.u48 small 8);
            keep (Msg.u16 large 17 + Msg.u32 large 1 + Msg.u48 large 5)) );
      ( "FRAGMENT_HDR field reads",
        0.01,
        words_per_op n (fun () -> keep (fragment_fields large)) );
      ("CHANNEL_HDR read", 10.01, words_per_op n (fun () -> keep (C.read small)));
      ( "SELECT_HDR read",
        6.01,
        let m = Msg.push (Msg.of_string "body") (S.encode sh) in
        words_per_op n (fun () -> keep (S.read m)) );
      ( "FRAGMENT_HDR encode",
        7.01,
        words_per_op n (fun () -> keep (fragment_encode fh)) );
      ("CHANNEL_HDR encode", 7.01, words_per_op n (fun () -> keep (C.encode ch)));
      (* ETH's [encode_header], field for field. *)
      ( "ETH header encode",
        6.01,
        words_per_op n (fun () ->
            let w = Codec.W.create 14 in
            Codec.W.u48 w 0x080020010203;
            Codec.W.u48 w 0x080020040506;
            Codec.W.u16 w 0x4000;
            keep (Codec.W.contents w)) );
    ]
  in
  measured := figures;
  match List.filter (fun (_, budget, w) -> not (w <= budget)) figures with
  | [] -> ()
  | over ->
      Alcotest.failf "over budget: %s"
        (String.concat ", "
           (List.map
              (fun (what, budget, w) ->
                Printf.sprintf "%s %.2f > %g" what w budget)
              over))

let () =
  Alcotest.run ~and_exit:false "codec"
    [
      ( "writer-reader",
        [
          Alcotest.test_case "fixed roundtrip" `Quick roundtrip_fixed;
          Alcotest.test_case "truncation raises" `Quick truncation;
          Alcotest.test_case "values masked to width" `Quick masking;
          Alcotest.test_case "position tracking" `Quick pos_tracking;
          Alcotest.test_case "exact-size writer" `Quick exact_size;
          prop_u32_roundtrip;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "zero cases" `Quick checksum_zero;
          Alcotest.test_case "header verifies" `Quick checksum_verifies;
          Alcotest.test_case "bit flip detected" `Quick checksum_catches_flip;
          Alcotest.test_case "odd length padding" `Quick odd_length;
          prop_checksum_identity;
        ] );
      ( "headers",
        header_props
        @ [ Alcotest.test_case "allocation budget" `Quick alloc_budget ] );
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  List.iter
    (fun (what, budget, w) ->
      Printf.printf "  %-32s %6.2f (budget %g)\n" what w budget)
    !measured
