open Xkernel

let roundtrip_fixed () =
  let b = Bytes.create 17 in
  Codec.set_u8 b 0 0xab;
  Codec.set_u16 b 1 0xbeef;
  Codec.set_u32 b 3 0xdeadbeef;
  Codec.set_u48 b 7 0x080020010203;
  Codec.set_string b 13 "tail";
  let m = Msg.of_string (Bytes.unsafe_to_string b) in
  Tutil.check_int "u8" 0xab (Msg.u8 m 0);
  Tutil.check_int "u16" 0xbeef (Msg.u16 m 1);
  Tutil.check_int "u32" 0xdeadbeef (Msg.u32 m 3);
  Tutil.check_int "u48" 0x080020010203 (Msg.u48 m 7);
  Tutil.check_int "unaligned u16" 0xabbe (Msg.u16 m 0);
  Tutil.check_int "unaligned u32" 0xefdeadbe (Msg.u32 m 2);
  Tutil.check_str "bytes" "tail" (Msg.to_string (Msg.drop m 13))

let masking () =
  let b = Bytes.create 13 in
  Codec.set_u8 b 0 0x1ff;
  Codec.set_u16 b 1 0x1ffff;
  Codec.set_u32 b 3 0x1_ffff_ffff;
  Codec.set_u48 b 7 0x1_ffff_ffff_ffff;
  let m = Msg.of_string (Bytes.unsafe_to_string b) in
  Tutil.check_int "u8 masks" 0xff (Msg.u8 m 0);
  Tutil.check_int "u16 masks" 0xffff (Msg.u16 m 1);
  Tutil.check_int "u32 masks" 0xffff_ffff (Msg.u32 m 3);
  Tutil.check_int "u48 masks" 0xffff_ffff_ffff (Msg.u48 m 7)

(* A field that does not lie wholly inside the buffer is refused before
   any byte is written: a wide field one byte short of fitting leaves
   even the bytes that would have fitted alone. *)
let out_of_range () =
  let b = Bytes.make 8 '.' in
  let refused what f =
    Alcotest.check_raises what (Invalid_argument "Codec: field past the header") f;
    Tutil.check_str (what ^ " wrote nothing") "........" (Bytes.to_string b)
  in
  refused "u8 past the end" (fun () -> Codec.set_u8 b 8 1);
  refused "u16 straddling the end" (fun () -> Codec.set_u16 b 7 0xffff);
  refused "u32 straddling the end" (fun () -> Codec.set_u32 b 5 0xffffffff);
  refused "u48 straddling the end" (fun () -> Codec.set_u48 b 3 0xffffffffffff);
  refused "string straddling the end" (fun () -> Codec.set_string b 6 "abc");
  refused "negative offset" (fun () -> Codec.set_u16 b (-1) 0xffff);
  Codec.set_u16 b 6 0x4142;
  Codec.set_string b 0 "xyz";
  Tutil.check_str "fields that fit are written" "xyz...AB" (Bytes.to_string b)

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
      let b = Bytes.create 4 in
      Codec.set_u32 b 0 n;
      Msg.u32 (Msg.of_string (Bytes.unsafe_to_string b)) 0 = n)

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
let u16 v = v land 0xffff

(* Random field values and a body to push the header onto. *)
let gen_fields =
  QCheck.(
    pair
      (array_of_size (Gen.return 11) (int_bound 0xffffffff))
      (string_of_size (Gen.int_range 0 40)))

(* One property per header.  [make] turns random values into in-range
   field values (the readers' results, in [encode]'s order), [encode]
   writes the header from them and [read] reads every field back in
   place.  The header is pushed onto the body and the frame cut into
   two leaves at every byte, so a field that straddles the cut is read
   by the fallback across leaves; [len] is the header's size. *)
let round_trip name ~make ~len ~encode ~read =
  Tutil.qtest name gen_fields (fun (v, body) ->
      let f = make v in
      let hdr = encode f in
      let frame = Msg.push (Msg.of_string body) hdr in
      let n = Msg.length frame in
      String.length hdr = len f
      && List.for_all
           (fun k ->
             read (Msg.append (Msg.sub frame 0 k) (Msg.sub frame k (n - k)))
             = f)
           (List.init (n + 1) Fun.id))

let fragment_of v =
  [|
    v.(0) land 0xff; v.(1); v.(2); v.(3); v.(4); u16 v.(5); u16 v.(6);
    u16 v.(7);
  |]

let fragment_encode f =
  F.encode ~typ:f.(0) ~clnt:(ip f.(1)) ~srvr:(ip f.(2)) ~proto:f.(3) ~seq:f.(4)
    ~num:f.(5) ~mask:f.(6) ~len:f.(7)

let fragment_read m =
  [|
    F.typ m; Addr.Ip.to_int (F.clnt_host m); Addr.Ip.to_int (F.srvr_host m);
    F.protocol_num m; F.sequence_num m; F.num_frags m; F.frag_mask m; F.len m;
  |]

(* The deadline flag bit (0x10) follows the extension word, as [encode]
   sets it; half the headers carry one.  The last value is
   [header_len]. *)
let channel_of v =
  let stamped = v.(6) land 1 = 1 in
  [|
    (u16 v.(0) land 0xffef) lor (if stamped then 0x10 else 0); u16 v.(1);
    v.(2); v.(3); u16 v.(4); v.(5); (if stamped then v.(7) else -1);
    (if stamped then C.bytes + C.ext_bytes else C.bytes);
  |]

let channel_encode f =
  C.encode ~flags:f.(0) ~channel:f.(1) ~proto:f.(2) ~seq:f.(3) ~error:f.(4)
    ~boot_id:f.(5) ~deadline_us:f.(6)

let channel_read m =
  [|
    C.flags m; C.channel m; C.protocol_num m; C.sequence_num m; C.error m;
    C.boot_id m; C.deadline_us m; C.header_len m;
  |]

let select_of v = [| v.(0) land 0xff; u16 v.(1); v.(2) land 0xff |]

let select_encode f = S.encode ~typ:f.(0) ~command:f.(1) ~status:f.(2)
let select_read m = [| S.typ m; S.command m; S.status m |]

(* The stamp and the wrong-shard version are read behind the SELECT
   header, so each is written with one. *)
let stamp_of v = Array.append (select_of v) [| u16 v.(3); v.(4); v.(5) |]

let stamp_encode f =
  select_encode f
  ^ S.encode_stamp { S.shard = f.(3); epoch = f.(4); version = f.(5) }

let stamp_read m =
  Array.append (select_read m) [| S.shard m; S.epoch m; S.version m |]

let wrong_shard_of v = Array.append (select_of v) [| v.(3) |]

let wrong_shard_encode f =
  select_encode f ^ S.encode_wrong_shard ~version:f.(3)

let wrong_shard_read m =
  Array.append (select_read m) [| S.wrong_shard_version m |]

(* SPRITE_HDR's fields, then the data1 offset and the three fields
   [encode] writes as 0, which nothing reads, at their offsets. *)
let sprite_of v =
  [|
    u16 v.(0); v.(1); v.(2); u16 v.(3); v.(4); u16 v.(5); u16 v.(6);
    u16 v.(7); v.(8); u16 v.(9); u16 v.(10); 0; 0; 0;
  |]

let sprite_encode f =
  H.encode ~flags:f.(0) ~clnt:(ip f.(1)) ~srvr:(ip f.(2)) ~channel:f.(3)
    ~seq:f.(4) ~num:f.(5) ~mask:f.(6) ~command:f.(7) ~boot_id:f.(8)
    ~len:f.(9) ~off:f.(10)

let sprite_read m =
  [|
    H.flags m; Addr.Ip.to_int (H.clnt_host m); Addr.Ip.to_int (H.srvr_host m);
    H.channel m; H.sequence_num m; H.num_frags m; H.frag_mask m; H.command m;
    H.boot_id m; H.data1_sz m; Msg.u16 m 32; Msg.u16 m 12; Msg.u16 m 30;
    Msg.u16 m 34;
  |]

let header_props =
  [
    round_trip "FRAGMENT_HDR" ~make:fragment_of ~len:(Fun.const F.bytes)
      ~encode:fragment_encode ~read:fragment_read;
    round_trip "CHANNEL_HDR" ~make:channel_of ~len:(fun f -> f.(7))
      ~encode:channel_encode ~read:channel_read;
    round_trip "SELECT_HDR" ~make:select_of ~len:(Fun.const S.bytes)
      ~encode:select_encode ~read:select_read;
    round_trip "SPRITE_HDR" ~make:sprite_of ~len:(Fun.const H.bytes)
      ~encode:sprite_encode ~read:sprite_read;
    round_trip "shard stamp" ~make:stamp_of
      ~len:(Fun.const (S.bytes + S.stamp_bytes))
      ~encode:stamp_encode ~read:stamp_read;
    round_trip "wrong-shard version" ~make:wrong_shard_of
      ~len:(Fun.const (S.bytes + 4))
      ~encode:wrong_shard_encode ~read:wrong_shard_read;
  ]

(* Allocation budgets for the header path, in minor words per operation
   over 10k operations (see test_sim's for the method).  OCaml 5.1.1
   measures nothing for an in-place read of a pushed header (every
   header's field readers are such reads), and for an encode only the
   header's string: 4 words for FRAGMENT's 23 bytes and CHANNEL's 18, 3
   for ETH's 14, 2 for SELECT's 4.  Each of the per-call headers has a
   row.  The writer record the setters replaced added 3 words to each
   (7, 7, 6).  The 0.01 over each covers the boxed float of
   [Gc.minor_words]. *)
let words_per_op n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let measured = ref []

(* Every field of a header, read in place and summed. *)
let fragment_fields m =
  F.typ m + Addr.Ip.to_int (F.clnt_host m) + Addr.Ip.to_int (F.srvr_host m)
  + F.protocol_num m + F.sequence_num m + F.num_frags m + F.frag_mask m
  + F.len m

let channel_fields m =
  C.header_len m + C.flags m + C.channel m + C.protocol_num m
  + C.sequence_num m + C.error m + C.boot_id m + C.deadline_us m

let select_fields m = S.typ m + S.command m + S.status m

let alloc_budget () =
  let n = 10_000 in
  let fh = fragment_of (Array.init 11 (fun i -> 0x01020304 * (i + 1))) in
  let ch = channel_of (Array.make 11 6) in
  let sh = select_of [| 1; 2; 0 |] in
  (* A frame the size of a null call's (pushed onto a small leaf, so
     flattened into one) and one over a 1 KB body (a [Cat]). *)
  let small = Msg.push (Msg.of_string "ping") (channel_encode ch) in
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
      ( "CHANNEL_HDR field reads",
        0.01,
        words_per_op n (fun () -> keep (channel_fields small)) );
      ( "SELECT_HDR field reads",
        0.01,
        let m = Msg.push (Msg.of_string "body") (select_encode sh) in
        words_per_op n (fun () -> keep (select_fields m)) );
      ( "FRAGMENT_HDR encode",
        4.01,
        words_per_op n (fun () -> keep (fragment_encode fh)) );
      ( "CHANNEL_HDR encode",
        4.01,
        words_per_op n (fun () -> keep (channel_encode ch)) );
      ( "SELECT_HDR encode",
        2.01,
        words_per_op n (fun () -> keep (select_encode sh)) );
      (* ETH's [encode_header], field for field. *)
      ( "ETH header encode",
        3.01,
        words_per_op n (fun () ->
            let b = Bytes.create 14 in
            Codec.set_u48 b 0 0x080020010203;
            Codec.set_u48 b 6 0x080020040506;
            Codec.set_u16 b 12 0x4000;
            keep (Bytes.unsafe_to_string b)) );
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
          Alcotest.test_case "values masked to width" `Quick masking;
          Alcotest.test_case "out-of-range write refused" `Quick out_of_range;
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
