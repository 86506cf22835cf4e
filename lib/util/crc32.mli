(** CRC-32 checksums (IEEE 802.3 / zlib polynomial 0xEDB88320).

    Detects all single-byte and burst errors up to 32 bits — the
    corruption classes the framed corpus codec must survive. Values are
    32-bit and returned in a non-negative [int]. [crc] defaults to 0 (the
    CRC of the empty string); passing a previous result chains the
    computation, so
    [string ~crc:(string a) b = string (a ^ b)].

    The kernel is slicing-by-8 (eight bytes per step through eight
    lookup tables); its results are those of the bytewise algorithm. *)

val string : ?crc:int -> string -> int
(** CRC of a whole string, chained onto [crc]. *)

val bytes_sub : ?crc:int -> Bytes.t -> pos:int -> len:int -> int
(** CRC of [len] bytes of [b] starting at [pos], chained onto [crc];
    computed in place, no copy.
    @raise Invalid_argument if the range is out of bounds. *)
