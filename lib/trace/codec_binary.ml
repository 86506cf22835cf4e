exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

let magic = "DPTB"
let version = 1

(* --- wire primitives, shared with the framed v2 codec --- *)

module Wire = struct
  let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

  (* Unsigned LEB128: 7 bits per byte, high bit = continuation. Most fields
     (tids, stack depths, counts, costs in µs) are small; this is where the
     size win over the text format comes from. *)
  let rec wv buf v =
    if v < 0 then corrupt "cannot encode negative varint %d" v;
    if v < 0x80 then w8 buf v
    else begin
      w8 buf (0x80 lor (v land 0x7f));
      wv buf (v lsr 7)
    end

  let wstr buf s =
    let n = String.length s in
    wv buf n;
    Buffer.add_string buf s

  type cursor = { data : string; mutable pos : int }

  let cursor data = { data; pos = 0 }
  let at_end cur = cur.pos = String.length cur.data

  let need cur n =
    if cur.pos + n > String.length cur.data then
      corrupt "truncated input at byte %d (need %d more)" cur.pos n

  let r8 cur =
    need cur 1;
    let v = Char.code cur.data.[cur.pos] in
    cur.pos <- cur.pos + 1;
    v

  (* Top-level recursion, not a local closure over [cur]: decoding calls
     this several times per event, and without flambda a local [go]
     would allocate a closure on every call. *)
  let rec rv_from cur shift acc =
    let b = r8 cur in
    (* After eight bytes only bits 56..61 of a 63-bit int remain: a ninth
       byte with bit 6 set would land in the sign bit, and a continuation
       would go past it — either way a crafted file could smuggle a
       negative ts/cost/tid past every writer-side invariant. *)
    if shift = 56 && b land 0xc0 <> 0 then
      corrupt "varint overflow at byte %d" (cur.pos - 1);
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else rv_from cur (shift + 7) acc

  let rv cur = rv_from cur 0 0

  let rstr cur =
    let n = rv cur in
    need cur n;
    let s = String.sub cur.data cur.pos n in
    cur.pos <- cur.pos + n;
    s

  let rlist cur f =
    let n = rv cur in
    if n > String.length cur.data then corrupt "implausible element count %d" n;
    List.init n (fun _ -> f cur)
end

open Wire

let kind_code = function
  | Event.Running -> 0
  | Event.Wait -> 1
  | Event.Unwait -> 2
  | Event.Hw_service -> 3

let kind_of_code = function
  | 0 -> Event.Running
  | 1 -> Event.Wait
  | 2 -> Event.Unwait
  | 3 -> Event.Hw_service
  | c -> corrupt "unknown event kind code %d" c

(* --- specs and streams, shared with the framed v2 codec --- *)

let write_spec buf (s : Scenario.spec) =
  wstr buf s.name;
  wv buf s.tfast;
  wv buf s.tslow

let read_spec cur =
  let name = rstr cur in
  let tfast = rv cur in
  let tslow = rv cur in
  if not (0 < tfast && tfast <= tslow) then
    corrupt "invalid spec thresholds for %s" name;
  Scenario.spec ~name ~tfast ~tslow

let write_stream buf ~sig_index (st : Stream.t) =
  wv buf st.Stream.id;
  wv buf (List.length st.Stream.threads);
  List.iter
    (fun (tid, name) ->
      wv buf tid;
      wstr buf name)
    st.Stream.threads;
  wv buf (Array.length st.Stream.events);
  Array.iter
    (fun (e : Event.t) ->
      w8 buf (kind_code e.kind);
      wv buf e.tid;
      wv buf (e.wtid + 1);
      wv buf e.ts;
      wv buf e.cost;
      let frames = Callstack.frames e.stack in
      wv buf (Array.length frames);
      Array.iter (fun s -> wv buf (sig_index s)) frames)
    st.Stream.events;
  wv buf (List.length st.Stream.instances);
  List.iter
    (fun (i : Scenario.instance) ->
      wstr buf i.scenario;
      wv buf i.tid;
      wv buf i.t0;
      wv buf i.t1)
    st.Stream.instances

let read_stream cur ~sig_of =
  let id = rv cur in
  let threads =
    rlist cur (fun cur ->
        let tid = rv cur in
        let name = rstr cur in
        (tid, name))
  in
  (* Events are read straight into the stream's array with their final
     dense ids; [Stream.of_array] then only checks the order. *)
  let nevents = rv cur in
  if nevents > String.length cur.data then
    corrupt "implausible element count %d" nevents;
  let read_event i =
    let kind = kind_of_code (r8 cur) in
    let tid = rv cur in
    let wtid = rv cur - 1 in
    let ts = rv cur in
    let cost = rv cur in
    let depth = rv cur in
    if depth > 0xffff then corrupt "implausible stack depth %d" depth;
    let frames = Array.init depth (fun _ -> sig_of (rv cur)) in
    { Event.id = i; kind; stack = Callstack.of_array frames; ts; cost; tid; wtid }
  in
  let events = Array.init nevents read_event in
  let instances =
    rlist cur (fun cur ->
        let scenario = rstr cur in
        let tid = rv cur in
        let t0 = rv cur in
        let t1 = rv cur in
        if t1 < t0 then corrupt "instance %s has t1 < t0" scenario;
        { Scenario.scenario; tid; t0; t1 })
  in
  Stream.of_array ~id ~events ~instances ~threads

(* --- whole-corpus writer --- *)

let encode (c : Corpus.t) =
  (* Signature table: every distinct signature across all callstacks. *)
  let sig_index : (Signature.t, int) Hashtbl.t = Hashtbl.create 256 in
  let sig_list = ref [] in
  let nsigs = ref 0 in
  let index_of s =
    match Hashtbl.find_opt sig_index s with
    | Some i -> i
    | None ->
      let i = !nsigs in
      incr nsigs;
      Hashtbl.replace sig_index s i;
      sig_list := s :: !sig_list;
      i
  in
  List.iter
    (fun (st : Stream.t) ->
      Array.iter
        (fun (e : Event.t) ->
          Array.iter (fun s -> ignore (index_of s)) (Callstack.frames e.stack))
        st.Stream.events)
    c.Corpus.streams;
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  w8 buf version;
  wv buf !nsigs;
  List.iter (fun s -> wstr buf (Signature.name s)) (List.rev !sig_list);
  wv buf (List.length c.Corpus.specs);
  List.iter (write_spec buf) c.Corpus.specs;
  wv buf (List.length c.Corpus.streams);
  List.iter
    (write_stream buf ~sig_index:(fun s -> Hashtbl.find sig_index s))
    c.Corpus.streams;
  Buffer.contents buf

(* --- whole-corpus reader --- *)

let decode data =
  let cur = cursor data in
  need cur 5;
  if String.sub data 0 4 <> magic then corrupt "bad magic";
  cur.pos <- 4;
  let v = r8 cur in
  if v <> version then corrupt "unsupported version %d" v;
  let sigs =
    Array.of_list (rlist cur (fun cur -> Signature.of_string (rstr cur)))
  in
  let sig_of i =
    if i < 0 || i >= Array.length sigs then corrupt "signature index %d out of range" i
    else sigs.(i)
  in
  let specs = rlist cur read_spec in
  let streams = rlist cur (fun cur -> read_stream cur ~sig_of) in
  if not (at_end cur) then
    corrupt "%d trailing bytes" (String.length data - cur.pos);
  Corpus.create ~streams ~specs

let save path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode c))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      decode (really_input_string ic n))
