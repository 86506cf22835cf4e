(* Framed, checksummed corpus format v2. See codec_v2.mli for the
   on-disk layout and the recovery contract. *)

let corrupt fmt = Format.kasprintf (fun m -> raise (Codec_binary.Corrupt m)) fmt

let magic = "DPTF\x02"
let marker = "\xf7DP\xf2"

(* Frames above this are rejected as framing damage rather than read: a
   corrupt length field must not make the reader swallow gigabytes. *)
let max_frame_len = 1 lsl 30

(* Telemetry. Byte/frame/stream counters feed `driveperf stats` and the
   convert progress line; the per-stream encode/decode spans land on the
   recording domain's tid, so a pooled (de)serialisation shows its fan-out
   in the Chrome trace. All behind [Dpobs.metrics_on]/[spans_on]. *)
let bytes_written_c () = Dpobs.Metrics.counter "codec_v2.bytes_written"
let bytes_read_c () = Dpobs.Metrics.counter "codec_v2.bytes_read"
let frames_written_c () = Dpobs.Metrics.counter "codec_v2.frames_written"
let frames_read_c () = Dpobs.Metrics.counter "codec_v2.frames_read"
let frames_dropped_c () = Dpobs.Metrics.counter "codec_v2.frames_dropped"
let streams_written_c () = Dpobs.Metrics.counter "codec_v2.streams_written"
let streams_read_c () = Dpobs.Metrics.counter "codec_v2.streams_read"

type mode = [ `Strict | `Recover ]
type diagnostic = { frame : int; offset : int; reason : string }
type report = { frames : int; streams : int; dropped : diagnostic list }

let pp_diagnostic fmt d =
  Format.fprintf fmt "frame %d at byte %d: %s" d.frame d.offset d.reason

(* --- frame payloads --- *)

let header_payload specs =
  let buf = Buffer.create 256 in
  Codec_binary.Wire.wv buf (List.length specs);
  List.iter (Codec_binary.write_spec buf) specs;
  Buffer.contents buf

let trailer_payload nstreams =
  let buf = Buffer.create 8 in
  Codec_binary.Wire.wv buf nstreams;
  Buffer.contents buf

(* Payload body without telemetry: shared by the writer and by
   [stream_key], which re-encodes cache-less streams for their identity
   and must not count them as written. *)
let stream_payload_raw (st : Stream.t) =
  let buf = Buffer.create 65536 in
  (* Frame-local signature table, first-appearance order: every frame
     decodes on its own, so one corrupt frame cannot strand the table —
     hence the data — of any other. *)
  let sig_index : (Signature.t, int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let nsigs = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      Array.iter
        (fun s ->
          if not (Hashtbl.mem sig_index s) then begin
            Hashtbl.replace sig_index s !nsigs;
            order := s :: !order;
            incr nsigs
          end)
        (Callstack.frames e.stack))
    st.Stream.events;
  Codec_binary.Wire.wv buf !nsigs;
  List.iter
    (fun s -> Codec_binary.Wire.wstr buf (Signature.name s))
    (List.rev !order);
  Codec_binary.write_stream buf
    ~sig_index:(fun s -> Hashtbl.find sig_index s)
    st;
  Buffer.contents buf

let stream_payload st =
  Dpobs.Span.with_span "codec_v2.encode_stream" @@ fun () ->
  let payload = stream_payload_raw st in
  if Dpobs.metrics_on () then
    Dpobs.Metrics.incr (streams_written_c ());
  payload

let decode_header payload =
  let cur = Codec_binary.Wire.cursor payload in
  let specs = Codec_binary.Wire.rlist cur Codec_binary.read_spec in
  if not (Codec_binary.Wire.at_end cur) then corrupt "header frame: trailing bytes";
  specs

let decode_trailer payload =
  let cur = Codec_binary.Wire.cursor payload in
  let n = Codec_binary.Wire.rv cur in
  if not (Codec_binary.Wire.at_end cur) then corrupt "trailer frame: trailing bytes";
  n

let decode_stream_payload ?key payload =
  Dpobs.Span.with_span "codec_v2.decode_stream" @@ fun () ->
  let cur = Codec_binary.Wire.cursor payload in
  let sigs =
    Array.of_list
      (Codec_binary.Wire.rlist cur (fun c ->
           Signature.of_string (Codec_binary.Wire.rstr c)))
  in
  let sig_of i =
    if i < 0 || i >= Array.length sigs then
      corrupt "signature index %d out of range" i
    else sigs.(i)
  in
  let st = Codec_binary.read_stream cur ~sig_of in
  if not (Codec_binary.Wire.at_end cur) then corrupt "stream frame: trailing bytes";
  if Dpobs.metrics_on () then Dpobs.Metrics.incr (streams_read_c ());
  (* The frame checksum was already verified by the reader; memoising it
     as the stream's content identity makes cache-keyed re-analysis free
     of re-encoding for loaded corpora. *)
  (match key with Some k -> Stream.set_key_memo st k | None -> ());
  st

(* --- frame envelope --- *)

let le32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

(* A frame's CRC covers its kind byte, then its payload: the CRC of the
   kind byte alone is the seed the payload is chained onto, computed once
   per kind rather than once per frame. *)
let seed_h = Dputil.Crc32.string "H"
let seed_s = Dputil.Crc32.string "S"
let seed_e = Dputil.Crc32.string "E"

let kind_seed = function
  | 'H' -> seed_h
  | 'S' -> seed_s
  | 'E' -> seed_e
  | k -> invalid_arg (Printf.sprintf "Codec_v2.kind_seed %C" k)

let frame_crc kind payload = Dputil.Crc32.string ~crc:(kind_seed kind) payload

(* --- stream content identity ---

   A stream's key is the CRC-32 of its would-be 'S' frame plus the
   payload length — exactly what the frame envelope stores on disk, so a
   loaded stream's key (captured during decode, checksum pre-verified)
   and a generated stream's key (re-encoded here) agree whenever the
   content does. The payload is deterministic: the signature table is in
   first-appearance order, a pure function of the event array. *)

let key_of_crc crc ~len = Printf.sprintf "%08x-%d" (crc land 0xffffffff) len

let stream_key (st : Stream.t) =
  match Stream.key_memo st with
  | Some k -> k
  | None ->
    let payload = stream_payload_raw st in
    let k = key_of_crc (frame_crc 'S' payload) ~len:(String.length payload) in
    Stream.set_key_memo st k;
    k

let frame_string kind payload =
  let buf = Buffer.create (13 + String.length payload) in
  Buffer.add_string buf marker;
  Buffer.add_char buf kind;
  le32 buf (String.length payload);
  le32 buf (frame_crc kind payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* --- streaming writer --- *)

type writer = { oc : out_channel; mutable written : int; mutable closed : bool }

let writer oc ~specs =
  output_string oc magic;
  output_string oc (frame_string 'H' (header_payload specs));
  { oc; written = 0; closed = false }

let add_stream w st =
  if w.closed then invalid_arg "Codec_v2.add_stream: writer is closed";
  let framed = frame_string 'S' (stream_payload st) in
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (bytes_written_c ()) (String.length framed);
    Dpobs.Metrics.incr (frames_written_c ())
  end;
  output_string w.oc framed;
  w.written <- w.written + 1

let close w =
  if not w.closed then begin
    output_string w.oc (frame_string 'E' (trailer_payload w.written));
    w.closed <- true
  end

let emit ?pool put (c : Corpus.t) =
  Dpobs.Span.with_span "codec_v2.encode" @@ fun () ->
  let put =
    if Dpobs.metrics_on () then (fun s ->
      Dpobs.Metrics.add (bytes_written_c ()) (String.length s);
      put s)
    else put
  in
  put magic;
  put (frame_string 'H' (header_payload c.Corpus.specs));
  let payloads =
    match pool with
    | Some pool when Dppar.Pool.size pool > 1 ->
      Dppar.Pool.parallel_map ~chunk:1 pool stream_payload c.Corpus.streams
    | _ -> List.map stream_payload c.Corpus.streams
  in
  List.iter (fun p -> put (frame_string 'S' p)) payloads;
  put (frame_string 'E' (trailer_payload (List.length c.Corpus.streams)));
  if Dpobs.metrics_on () then
    Dpobs.Metrics.add (frames_written_c ())
      (2 + List.length c.Corpus.streams)

let write_corpus ?pool oc c = emit ?pool (output_string oc) c

let encode ?pool c =
  let buf = Buffer.create 65536 in
  emit ?pool (Buffer.add_string buf) c;
  Buffer.contents buf

let save ?pool path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_corpus ?pool oc c)

(* --- buffered source: a channel or a string, with bounded lookahead ---

   The reader never materialises more than one frame (plus a refill
   chunk): ingestion memory is bounded by the largest single frame, not
   by the corpus. *)

type src = {
  refill : Bytes.t -> int -> int -> int;
  mutable buf : Bytes.t;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable lim : int;  (* end of valid data in [buf] *)
  mutable base : int;  (* absolute file offset of [buf.[0]] *)
  mutable eof : bool;
}

let src_of_channel ic =
  {
    refill = input ic;
    buf = Bytes.create 65536;
    pos = 0;
    lim = 0;
    base = 0;
    eof = false;
  }

let src_of_string s =
  {
    refill = (fun _ _ _ -> 0);
    buf = Bytes.of_string s;
    pos = 0;
    lim = String.length s;
    base = 0;
    eof = true;
  }

let available src = src.lim - src.pos
let offset src = src.base + src.pos

let compact src =
  if src.pos > 0 then begin
    let n = available src in
    Bytes.blit src.buf src.pos src.buf 0 n;
    src.base <- src.base + src.pos;
    src.pos <- 0;
    src.lim <- n
  end

(* Make [n] bytes available at the head if the input has them; returns
   the available count, < [n] only at end of input. *)
let fill src n =
  if available src < n then begin
    compact src;
    if n > Bytes.length src.buf then begin
      let fresh = Bytes.create (max n (2 * Bytes.length src.buf)) in
      Bytes.blit src.buf 0 fresh 0 src.lim;
      src.buf <- fresh
    end;
    while (not src.eof) && src.lim < n do
      let k = src.refill src.buf src.lim (Bytes.length src.buf - src.lim) in
      if k = 0 then src.eof <- true else src.lim <- src.lim + k
    done
  end;
  available src

let head_matches_marker src =
  (* caller has filled >= 4 *)
  Bytes.get src.buf src.pos = marker.[0]
  && Bytes.get src.buf (src.pos + 1) = marker.[1]
  && Bytes.get src.buf (src.pos + 2) = marker.[2]
  && Bytes.get src.buf (src.pos + 3) = marker.[3]

(* Advance to the next occurrence of the frame marker (possibly the
   current head); false when the input ends first. *)
let scan_to_marker src =
  let continue = ref true and found = ref false in
  while !continue do
    if fill src 4 < 4 then continue := false
    else begin
      let i = ref src.pos in
      let limit = src.lim - 4 in
      while (not !found) && !i <= limit do
        if
          Bytes.get src.buf !i = marker.[0]
          && Bytes.get src.buf (!i + 1) = marker.[1]
          && Bytes.get src.buf (!i + 2) = marker.[2]
          && Bytes.get src.buf (!i + 3) = marker.[3]
        then found := true
        else incr i
      done;
      if !found then begin
        src.pos <- !i;
        continue := false
      end
      else begin
        (* Keep the last 3 bytes: the marker may straddle the refill. *)
        src.pos <- src.lim - 3;
        if src.eof then continue := false
        else ignore (fill src (available src + 1))
      end
    end
  done;
  !found

let le32_at src i =
  Char.code (Bytes.get src.buf i)
  lor (Char.code (Bytes.get src.buf (i + 1)) lsl 8)
  lor (Char.code (Bytes.get src.buf (i + 2)) lsl 16)
  lor (Char.code (Bytes.get src.buf (i + 3)) lsl 24)

(* --- frame-level reader ---

   Walks the file frame by frame, verifying checksums. [f] sees only
   checksum-verified frames. In [`Recover] mode, framing damage and
   exceptions raised by [f] become diagnostics and the walk
   resynchronises on the next marker; in [`Strict] mode they raise.
   Returns (acc, diagnostics in file order, frames seen, end offset). *)

let fold_raw mode src ~init ~f =
  let diags = ref [] in
  let ndiag = ref 0 in
  let diag ~frame ~offset fmt =
    Format.kasprintf
      (fun reason ->
        incr ndiag;
        diags := { frame; offset; reason } :: !diags)
      fmt
  in
  let magic_ok =
    let have = fill src 5 in
    if have >= 5 && Bytes.sub_string src.buf src.pos 5 = magic then begin
      src.pos <- src.pos + 5;
      true
    end
    else
      match mode with
      | `Strict ->
        if have < 5 then corrupt "not a v2 corpus: shorter than the magic"
        else
          corrupt "not a v2 corpus: bad magic %S"
            (Bytes.sub_string src.buf src.pos 5)
      | `Recover ->
        (* A flipped byte in the magic must not discard an otherwise
           intact file: diagnose and resynchronise on the first frame
           marker (the header frame sits right behind the magic). *)
        diag ~frame:0 ~offset:0 "bad file magic";
        scan_to_marker src
  in
  let idx = ref 0 in
  let acc = ref init in
  let continue = ref magic_ok in
  while !continue do
    if fill src 1 = 0 then continue := false (* clean EOF *)
    else begin
      let off = offset src in
      let have = fill src 13 in
      if have < 13 then begin
        match mode with
        | `Strict -> corrupt "truncated frame header at byte %d" off
        | `Recover ->
          diag ~frame:!idx ~offset:off "truncated frame header (%d bytes)" have;
          src.pos <- src.lim;
          continue := false
      end
      else if not (head_matches_marker src) then begin
        match mode with
        | `Strict -> corrupt "bad frame marker at byte %d" off
        | `Recover ->
          src.pos <- src.pos + 1;
          let resynced = scan_to_marker src in
          diag ~frame:!idx ~offset:off "skipped %d bytes of garbage"
            (offset src - off);
          if not resynced then continue := false
      end
      else begin
        let kind = Bytes.get src.buf (src.pos + 4) in
        let len = le32_at src (src.pos + 5) in
        let stored = le32_at src (src.pos + 9) in
        if not (kind = 'H' || kind = 'S' || kind = 'E') then begin
          match mode with
          | `Strict -> corrupt "unknown frame kind %C at byte %d" kind off
          | `Recover ->
            diag ~frame:!idx ~offset:off "unknown frame kind %C" kind;
            src.pos <- src.pos + 4;
            if not (scan_to_marker src) then continue := false
        end
        else if len > max_frame_len then begin
          match mode with
          | `Strict -> corrupt "implausible frame length %d at byte %d" len off
          | `Recover ->
            diag ~frame:!idx ~offset:off "implausible frame length %d" len;
            src.pos <- src.pos + 4;
            if not (scan_to_marker src) then continue := false
        end
        else begin
          src.pos <- src.pos + 13;
          if fill src len < len then begin
            match mode with
            | `Strict ->
              corrupt "frame %d at byte %d: truncated payload (need %d, have %d)"
                !idx off len (available src)
            | `Recover ->
              diag ~frame:!idx ~offset:off "truncated payload (need %d, have %d)"
                len (available src);
              src.pos <- src.lim;
              continue := false
          end
          else begin
            let crc =
              Dputil.Crc32.bytes_sub ~crc:(kind_seed kind) src.buf
                ~pos:src.pos ~len
            in
            if crc <> stored then begin
              let frame = !idx in
              incr idx;
              match mode with
              | `Strict -> corrupt "frame %d at byte %d: checksum mismatch" frame off
              | `Recover ->
                diag ~frame ~offset:off "checksum mismatch";
                (* Rescan from the payload start: if the length field was
                   the corrupt part, the next real frame may begin inside
                   what it claimed as payload. *)
                if not (scan_to_marker src) then continue := false
            end
            else begin
              let payload = Bytes.sub_string src.buf src.pos len in
              src.pos <- src.pos + len;
              let frame = !idx in
              incr idx;
              match f !acc ~frame ~offset:off ~crc kind payload with
              | v -> acc := v
              | exception Codec_binary.Corrupt m ->
                (match mode with
                | `Strict -> raise (Codec_binary.Corrupt m)
                | `Recover -> diag ~frame ~offset:off "%s" m)
            end
          end
        end
      end
    end
  done;
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (bytes_read_c ()) (offset src);
    Dpobs.Metrics.add (frames_read_c ()) !idx;
    Dpobs.Metrics.add (frames_dropped_c ()) !ndiag
  end;
  (!acc, List.rev !diags, !idx, offset src)

(* Trailer accounting shared by the sequential and pooled loads. *)
let check_trailer mode ~declared ~loaded ~frames ~end_off diags =
  match (mode, declared) with
  | `Strict, None ->
    corrupt "missing end-of-corpus trailer (truncated at a frame boundary?)"
  | `Strict, Some n ->
    if n <> loaded then
      corrupt "trailer declares %d stream frames, loaded %d" n loaded;
    diags
  | `Recover, None ->
    diags
    @ [ { frame = frames; offset = end_off; reason = "missing end-of-corpus trailer" } ]
  | `Recover, Some n when n <> loaded ->
    diags
    @ [
        {
          frame = frames;
          offset = end_off;
          reason =
            Printf.sprintf "trailer declares %d stream frames, %d loaded" n
              loaded;
        };
      ]
  | `Recover, Some _ -> diags

(* A checksum collision must never leak invalid data into the analysis:
   recovered streams additionally have to pass Validate.check. *)
let checked_stream mode st =
  match mode with
  | `Strict -> st
  | `Recover -> (
    match Validate.check st with
    | [] -> st
    | v :: _ ->
      corrupt "decoded stream %d fails validation: %a" st.Stream.id
        (fun fmt v -> Validate.pp_violation fmt v)
        v)

let fold_src mode src ~init ~f =
  let specs = ref [] in
  let declared = ref None in
  let loaded = ref 0 in
  let handle acc ~frame:_ ~offset:_ ~crc kind payload =
    match kind with
    | 'H' ->
      specs := !specs @ decode_header payload;
      acc
    | 'E' ->
      declared := Some (decode_trailer payload);
      acc
    | _ ->
      let key = key_of_crc crc ~len:(String.length payload) in
      let st = checked_stream mode (decode_stream_payload ~key payload) in
      incr loaded;
      f acc st
  in
  let acc, diags, frames, end_off = fold_raw mode src ~init ~f:handle in
  let diags =
    check_trailer mode ~declared:!declared ~loaded:!loaded ~frames ~end_off diags
  in
  (acc, !specs, { frames; streams = !loaded; dropped = diags })

let fold_streams ?(mode = `Strict) ic ~init ~f =
  fold_src mode (src_of_channel ic) ~init ~f

(* Pooled load: frames are checksum-verified in file order (cheap), then
   decoded in parallel batches; batch size bounds the payload bytes held
   at once, and parallel_map keeps file order, so the result is
   bit-identical to the sequential load. *)
let load_pooled mode pool src =
  let batch_size = 4 * Dppar.Pool.size pool in
  let specs = ref [] in
  let declared = ref None in
  let pending = ref [] in
  let streams = ref [] in
  let late = ref [] in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | items ->
      pending := [];
      let results =
        Dppar.Pool.parallel_map ~chunk:1 pool
          (fun (frame, off, crc, payload) ->
            let key = key_of_crc crc ~len:(String.length payload) in
            match checked_stream mode (decode_stream_payload ~key payload) with
            | st -> Ok st
            | exception Codec_binary.Corrupt m -> (
              match mode with
              | `Strict ->
                raise
                  (Codec_binary.Corrupt
                     (Printf.sprintf "frame %d at byte %d: %s" frame off m))
              | `Recover -> Error { frame; offset = off; reason = m }))
          items
      in
      List.iter
        (function
          | Ok st -> streams := st :: !streams
          | Error d -> late := d :: !late)
        results
  in
  let (), diags, frames, end_off =
    fold_raw mode src ~init:() ~f:(fun () ~frame ~offset ~crc kind payload ->
        match kind with
        | 'H' -> specs := !specs @ decode_header payload
        | 'E' -> declared := Some (decode_trailer payload)
        | _ ->
          pending := (frame, offset, crc, payload) :: !pending;
          if List.length !pending >= batch_size then flush ())
  in
  flush ();
  let streams = List.rev !streams in
  let diags =
    List.sort
      (fun a b -> compare (a.offset, a.frame) (b.offset, b.frame))
      (diags @ List.rev !late)
  in
  let diags =
    check_trailer mode ~declared:!declared ~loaded:(List.length streams) ~frames
      ~end_off diags
  in
  ( Corpus.create ~streams ~specs:!specs,
    { frames; streams = List.length streams; dropped = diags } )

let load_src mode pool src =
  Dpobs.Span.with_span "codec_v2.decode" @@ fun () ->
  match pool with
  | Some pool when Dppar.Pool.size pool > 1 -> load_pooled mode pool src
  | _ ->
    let streams, specs, report =
      fold_src mode src ~init:[] ~f:(fun acc st -> st :: acc)
    in
    (Corpus.create ~streams:(List.rev streams) ~specs, report)

let decode ?(mode = `Strict) ?pool data = load_src mode pool (src_of_string data)

let load ?(mode = `Strict) ?pool path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> load_src mode pool (src_of_channel ic))
