module W = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

  let u16 w v =
    u8 w (v lsr 8);
    u8 w v

  let u32 w v =
    u16 w (v lsr 16);
    u16 w v

  let u48 w v =
    u16 w (v lsr 32);
    u32 w v

  let bytes w s = Buffer.add_string w s
  let contents = Buffer.contents
end

module R = struct
  type t = { data : string; mutable pos : int }

  exception Truncated

  let of_string data = { data; pos = 0 }
  let remaining r = String.length r.data - r.pos
  let pos r = r.pos

  let u8 r =
    if remaining r < 1 then raise Truncated;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let hi = u8 r in
    let lo = u8 r in
    (hi lsl 8) lor lo

  let u32 r =
    let hi = u16 r in
    let lo = u16 r in
    (hi lsl 16) lor lo

  let u48 r =
    let hi = u16 r in
    let lo = u32 r in
    (hi lsl 32) lor lo

  let bytes r n =
    if n < 0 || remaining r < n then raise Truncated;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s
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
