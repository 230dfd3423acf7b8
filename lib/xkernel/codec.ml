module W = struct
  type t = { buf : Bytes.t; mutable pos : int }

  let create size = { buf = Bytes.create size; pos = 0 }

  (* Claims the next [n] bytes; a write that does not fit changes
     nothing. *)
  let claim w n =
    let p = w.pos in
    if p + n > Bytes.length w.buf then invalid_arg "Codec.W: past the header";
    w.pos <- p + n;
    p

  let u8 w v = Bytes.set_uint8 w.buf (claim w 1) (v land 0xff)
  let u16 w v = Bytes.set_uint16_be w.buf (claim w 2) (v land 0xffff)

  let u32 w v =
    let p = claim w 4 in
    Bytes.set_uint16_be w.buf p ((v lsr 16) land 0xffff);
    Bytes.set_uint16_be w.buf (p + 2) (v land 0xffff)

  let u48 w v =
    let p = claim w 6 in
    Bytes.set_uint16_be w.buf p ((v lsr 32) land 0xffff);
    Bytes.set_uint16_be w.buf (p + 2) ((v lsr 16) land 0xffff);
    Bytes.set_uint16_be w.buf (p + 4) (v land 0xffff)

  let bytes w s =
    Bytes.blit_string s 0 w.buf (claim w (String.length s)) (String.length s)

  let contents w =
    if w.pos <> Bytes.length w.buf then invalid_arg "Codec.W.contents";
    Bytes.unsafe_to_string w.buf
end

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
