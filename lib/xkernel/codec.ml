(* A field that does not fit is refused before any byte is written. *)
let check b off n =
  if off < 0 || off > Bytes.length b - n then
    invalid_arg "Codec: field past the header"

let set_u8 b off v =
  check b off 1;
  Bytes.set_uint8 b off (v land 0xff)

let set_u16 b off v =
  check b off 2;
  Bytes.set_uint16_be b off (v land 0xffff)

let set_u32 b off v =
  check b off 4;
  Bytes.set_uint16_be b off ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let set_u48 b off v =
  check b off 6;
  Bytes.set_uint16_be b off ((v lsr 32) land 0xffff);
  Bytes.set_uint16_be b (off + 2) ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 4) (v land 0xffff)

let set_string b off s =
  check b off (String.length s);
  Bytes.blit_string s 0 b off (String.length s)

let ones_complement_sum s =
  let n = String.length s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code s.[!i] lsl 8);
  (* Fold carries back in until the sum fits in 16 bits. *)
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  !sum

let ip_checksum s = lnot (ones_complement_sum s) land 0xffff
