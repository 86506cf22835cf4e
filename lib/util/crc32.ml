(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the zlib
   convention: chaining [update ~crc] over consecutive chunks equals one
   pass over their concatenation, and the empty string has CRC 0.

   Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; entry [n] of table [k] is the
   CRC contribution of byte [n] followed by [k] zero bytes, so one step
   folds eight input bytes with eight independent lookups instead of
   eight dependent ones. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"

let[@inline] tab k n = Array.unsafe_get tables ((k * 256) + n)

(* Little-endian 32-bit word at [i], as a non-negative int. *)
let[@inline] word s i = Int32.to_int (get32u s i) land 0xffffffff

(* The caller has checked that [pos, pos + len) lies inside [s]. The
   register is masked to 32 bits because the table indices below assume
   it. *)
let sub ~crc s ~pos ~len =
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor word s !i and hi = word s (!i + 4) in
    c :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xff)
      lxor tab 2 ((hi lsr 8) land 0xff)
      lxor tab 1 ((hi lsr 16) land 0xff)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      tab 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let bytes_sub ?(crc = 0) b ~pos ~len =
  (* Compared as [pos > length - len]: [pos + len] can overflow and
     let a huge [pos] through. *)
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.bytes_sub";
  sub ~crc (Bytes.unsafe_to_string b) ~pos ~len

let string ?(crc = 0) s = sub ~crc s ~pos:0 ~len:(String.length s)
