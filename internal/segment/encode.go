package segment

// Segment file format. A segment is a sequence of independently
// checksummed sections after an 8-byte header:
//
//	[magic "TRSG"][u32 version]
//	repeated: [u32 sectionID][u32 len][u32 crc32c(payload)][payload]
//
// Sections appear in fixed order (meta, entities, events, adjacency);
// all integers are little-endian. The ten entity string columns share
// one offsets array (10n+1 u32 values) and one byte blob, so decoding
// every string in the segment costs a single string conversion plus one
// header write per value.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"threatraptor/internal/audit"
	"threatraptor/internal/faultinject"
)

const (
	segMagic   = "TRSG"
	segVersion = 1

	secMeta      = 1
	secEntities  = 2
	secEvents    = 3
	secAdjacency = 4
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// entityStrCols returns the ten entity string columns in their fixed
// on-disk order.
func entityStrCols(c *EntityCols) [10][]string {
	return [10][]string{c.Name, c.Path, c.User, c.Group, c.Exe,
		c.Cmd, c.SrcIP, c.DstIP, c.Protocol, c.Host}
}

// appendStrCols encodes string columns as one shared offsets array (one
// leading 0 then a running end offset per value, column-major) followed
// by one concatenated blob.
func appendStrCols(b []byte, cols [10][]string) []byte {
	off := uint32(0)
	b = appendU32(b, off)
	for _, col := range cols {
		for _, s := range col {
			off += uint32(len(s))
			b = appendU32(b, off)
		}
	}
	for _, col := range cols {
		for _, s := range col {
			b = append(b, s...)
		}
	}
	return b
}

// appendSection frames payload (built since mark) as a section in place:
// the caller reserves the 12-byte header with beginSection, fills the
// payload, then endSection patches length and checksum.
func beginSection(b []byte, id uint32) ([]byte, int) {
	b = appendU32(b, id)
	b = appendU32(b, 0) // len, patched
	b = appendU32(b, 0) // crc, patched
	return b, len(b)
}

func endSection(b []byte, payloadStart int) []byte {
	payload := b[payloadStart:]
	binary.LittleEndian.PutUint32(b[payloadStart-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[payloadStart-4:], crc32.Checksum(payload, castagnoli))
	return b
}

// Encode serializes an image into the segment file format. If
// img.EntityCols is nil and img.Entities is non-nil the columns are
// built first; an image with neither encodes an empty entities section.
func Encode(img *Image) []byte {
	cols := img.EntityCols
	if cols == nil && img.Entities != nil {
		cols = BuildEntityCols(img.Entities)
	}
	b := make([]byte, 0, encodedSizeHint(img, cols))
	b = append(b, segMagic...)
	b = appendU32(b, segVersion)

	// meta
	b, start := beginSection(b, secMeta)
	nEnt := 0
	if cols != nil {
		nEnt = len(cols.Kind)
	}
	b = appendI64s(b, []int64{img.NextEventID, img.MinTime, img.MaxTime,
		int64(nEnt), int64(len(img.Events.ID)), int64(img.Nodes)})
	b = endSection(b, start)

	// entities
	b, start = beginSection(b, secEntities)
	b = appendU32(b, uint32(nEnt))
	if cols != nil {
		b = append(b, cols.Kind...)
		b = appendI64s(b, cols.PID)
		b = appendI64s(b, cols.SrcPort)
		b = appendI64s(b, cols.DstPort)
		b = appendStrCols(b, entityStrCols(cols))
	}
	b = endSection(b, start)

	// events
	ev := &img.Events
	b, start = beginSection(b, secEvents)
	b = appendU32(b, uint32(len(ev.ID)))
	b = appendI64s(b, ev.ID)
	b = appendI64s(b, ev.Subject)
	b = appendI64s(b, ev.Object)
	b = appendI64s(b, ev.Start)
	b = appendI64s(b, ev.End)
	b = appendI64s(b, ev.Amount)
	b = appendI64s(b, ev.Failure)
	b = append(b, ev.Op...)
	b = endSection(b, start)

	// adjacency
	b, start = beginSection(b, secAdjacency)
	b = appendU32(b, uint32(len(img.Adj.OutCounts)))
	b = appendU32(b, uint32(len(img.Adj.Out)))
	b = appendU32(b, uint32(len(img.Adj.In)))
	b = appendI32s(b, img.Adj.OutCounts)
	b = appendI32s(b, img.Adj.Out)
	b = appendI32s(b, img.Adj.InCounts)
	b = appendI32s(b, img.Adj.In)
	b = endSection(b, start)

	return b
}

func encodedSizeHint(img *Image, cols *EntityCols) int {
	n := 64 + len(img.Events.ID)*57 + (len(img.Adj.Out)+len(img.Adj.In)+2*len(img.Adj.OutCounts))*4
	if cols != nil {
		n += len(cols.Kind)*70 + 1024
	}
	return n
}

// reader is a bounds-checked cursor over a decoded byte buffer; every
// read validates remaining length so mutated inputs produce typed
// errors, never panics or unbounded allocations.
type reader struct {
	b    []byte
	off  int
	file string
}

func (r *reader) fail(reason string) error {
	return &CorruptError{File: r.file, Offset: int64(r.off), Reason: reason}
}

func (r *reader) need(n int) error {
	if n < 0 || len(r.b)-r.off < n {
		return r.fail(fmt.Sprintf("need %d bytes, have %d", n, len(r.b)-r.off))
	}
	return nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) i64s(n int) ([]int64, error) {
	raw, err := r.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func (r *reader) i32s(n int) ([]int32, error) {
	raw, err := r.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// section validates the next section frame (ID and checksum) and
// returns a cursor over its payload.
func (r *reader) section(wantID uint32) (*reader, error) {
	id, err := r.u32()
	if err != nil {
		return nil, err
	}
	if id != wantID {
		return nil, r.fail(fmt.Sprintf("section ID %d, want %d", id, wantID))
	}
	ln, err := r.u32()
	if err != nil {
		return nil, err
	}
	crc, err := r.u32()
	if err != nil {
		return nil, err
	}
	start := r.off
	payload, err := r.bytes(int(ln))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, &CorruptError{File: r.file, Offset: int64(start), Reason: fmt.Sprintf("section %d checksum mismatch", wantID)}
	}
	return &reader{b: payload, file: r.file}, nil
}

// DecodeSegment parses and validates a segment file image. Every
// section checksum is verified and every count is bounds-checked
// against the remaining input before allocation, so arbitrary inputs
// return a typed error (wrapping ErrCorrupt) rather than panicking.
func DecodeSegment(data []byte) (*Image, error) {
	r := &reader{b: data, file: "segment"}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != segMagic {
		return nil, r.fail("bad magic")
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != segVersion {
		return nil, r.fail(fmt.Sprintf("unsupported segment version %d", ver))
	}

	meta, err := r.section(secMeta)
	if err != nil {
		return nil, err
	}
	m, err := meta.i64s(6)
	if err != nil {
		return nil, err
	}
	img := &Image{NextEventID: m[0], MinTime: m[1], MaxTime: m[2], Nodes: int(m[5])}
	nEnt, nEv := m[3], m[4]
	if nEnt < 0 || nEv < 0 || img.Nodes < 0 || img.NextEventID < 0 {
		return nil, meta.fail("negative meta count")
	}

	ents, err := r.section(secEntities)
	if err != nil {
		return nil, err
	}
	en, err := ents.u32()
	if err != nil {
		return nil, err
	}
	if int64(en) != nEnt {
		return nil, ents.fail("entity count disagrees with meta")
	}
	if en > 0 {
		n := int(en)
		// Cheapest possible row is ~29 bytes (kind + 3 int64s + offsets);
		// reject counts the input cannot hold before allocating.
		if err := ents.need(n * 29); err != nil {
			return nil, err
		}
		c := &EntityCols{}
		kind, err := ents.bytes(n)
		if err != nil {
			return nil, err
		}
		c.Kind = append([]uint8(nil), kind...)
		// The three int columns are adjacent on disk: decode them from one
		// slab, carved with capped capacities so appends never cross columns.
		ints, err := ents.i64s(3 * n)
		if err != nil {
			return nil, err
		}
		c.PID = ints[0*n : 1*n : 1*n]
		c.SrcPort = ints[1*n : 2*n : 2*n]
		c.DstPort = ints[2*n : 3*n : 3*n]
		// All ten string columns decode from one offsets array and one blob
		// copy into one header slab, carved per column with capped
		// capacities so appends never cross columns.
		offRaw, err := ents.bytes((10*n + 1) * 4)
		if err != nil {
			return nil, err
		}
		blobLen := binary.LittleEndian.Uint32(offRaw[10*n*4:])
		blobRaw, err := ents.bytes(int(blobLen))
		if err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(offRaw) != 0 {
			return nil, ents.fail("string offsets must start at 0")
		}
		blob := string(blobRaw)
		strs := make([]string, 10*n)
		prev := uint32(0)
		for i := range strs {
			end := binary.LittleEndian.Uint32(offRaw[(i+1)*4:])
			if end < prev || end > blobLen {
				return nil, ents.fail("string offsets not monotonic")
			}
			strs[i] = blob[prev:end]
			prev = end
		}
		for i, dst := range []*[]string{&c.Name, &c.Path, &c.User, &c.Group, &c.Exe,
			&c.Cmd, &c.SrcIP, &c.DstIP, &c.Protocol, &c.Host} {
			*dst = strs[i*n : (i+1)*n : (i+1)*n]
		}
		for i, k := range c.Kind {
			switch audit.EntityKind(k) {
			case audit.EntityFile, audit.EntityProcess, audit.EntityNetConn:
			default:
				return nil, ents.fail(fmt.Sprintf("entity %d has invalid kind %d", i+1, k))
			}
		}
		img.EntityCols = c
		img.Entities = buildEntities(c)
	}

	evs, err := r.section(secEvents)
	if err != nil {
		return nil, err
	}
	evn32, err := evs.u32()
	if err != nil {
		return nil, err
	}
	if int64(evn32) != nEv {
		return nil, evs.fail("event count disagrees with meta")
	}
	evn := int(evn32)
	if err := evs.need(evn * 57); err != nil {
		return nil, err
	}
	e := &img.Events
	// The seven int64 columns are adjacent on disk; decode into one slab.
	evInts, err := evs.i64s(7 * evn)
	if err != nil {
		return nil, err
	}
	for i, dst := range []*[]int64{&e.ID, &e.Subject, &e.Object, &e.Start, &e.End, &e.Amount, &e.Failure} {
		*dst = evInts[i*evn : (i+1)*evn : (i+1)*evn]
	}
	op, err := evs.bytes(evn)
	if err != nil {
		return nil, err
	}
	e.Op = append([]uint8(nil), op...)

	adj, err := r.section(secAdjacency)
	if err != nil {
		return nil, err
	}
	nodes, err := adj.u32()
	if err != nil {
		return nil, err
	}
	outLen, err := adj.u32()
	if err != nil {
		return nil, err
	}
	inLen, err := adj.u32()
	if err != nil {
		return nil, err
	}
	if int(nodes) != img.Nodes {
		return nil, adj.fail("adjacency node count disagrees with meta")
	}
	if err := adj.need(int(nodes)*8 + int(outLen)*4 + int(inLen)*4); err != nil {
		return nil, err
	}
	a := &img.Adj
	nN, nOut, nIn := int(nodes), int(outLen), int(inLen)
	adjInts, err := adj.i32s(2*nN + nOut + nIn)
	if err != nil {
		return nil, err
	}
	a.OutCounts = adjInts[:nN:nN]
	a.Out = adjInts[nN : nN+nOut : nN+nOut]
	a.InCounts = adjInts[nN+nOut : 2*nN+nOut : 2*nN+nOut]
	a.In = adjInts[2*nN+nOut : 2*nN+nOut+nIn : 2*nN+nOut+nIn]
	if err := validateImage(img); err != nil {
		return nil, err
	}
	return img, nil
}

// validateImage enforces the cross-section invariants a store restore
// relies on, so a decoded image can be adopted without re-checking.
func validateImage(img *Image) error {
	bad := func(reason string) error {
		return &CorruptError{File: "segment", Offset: 0, Reason: reason}
	}
	var sumOut, sumIn int64
	for _, c := range img.Adj.OutCounts {
		if c < 0 {
			return bad("negative adjacency count")
		}
		sumOut += int64(c)
	}
	for _, c := range img.Adj.InCounts {
		if c < 0 {
			return bad("negative adjacency count")
		}
		sumIn += int64(c)
	}
	if sumOut != int64(len(img.Adj.Out)) || sumIn != int64(len(img.Adj.In)) {
		return bad("adjacency counts disagree with flat list length")
	}
	nEdges := int32(len(img.Events.ID))
	for _, ei := range img.Adj.Out {
		if ei < 0 || ei >= nEdges {
			return bad("adjacency edge offset out of range")
		}
	}
	for _, ei := range img.Adj.In {
		if ei < 0 || ei >= nEdges {
			return bad("adjacency edge offset out of range")
		}
	}
	nodes := int64(img.Nodes)
	prev := int64(0)
	for i, id := range img.Events.ID {
		if id <= prev || id >= img.NextEventID {
			return bad("event IDs not ascending within the frontier")
		}
		prev = id
		if s := img.Events.Subject[i]; s < 1 || s > nodes {
			return bad("event subject out of range")
		}
		if o := img.Events.Object[i]; o < 1 || o > nodes {
			return bad("event object out of range")
		}
		if op := img.Events.Op[i]; op == uint8(audit.OpInvalid) || op > uint8(audit.OpReceive) {
			return bad("event op code out of range")
		}
	}
	if img.Entities != nil && len(img.Entities) > img.Nodes {
		return bad("more entities than graph nodes")
	}
	return nil
}

// SegmentFileName returns the file name for a flush generation and
// role, e.g. seg-00000007-global.seg.
func SegmentFileName(gen int64, role string) string {
	return fmt.Sprintf("seg-%08d-%s.seg", gen, role)
}

// WriteSegment encodes img and writes it to dir/name, fsyncing the file.
// The write goes through the FaultSegmentFlush point.
func WriteSegment(dir, name string, img *Image) (int64, error) {
	if err := faultinject.Hit(FaultSegmentFlush); err != nil {
		return 0, err
	}
	data := Encode(img)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return int64(len(data)), f.Close()
}

// OpenSegment reads and decodes dir/name, verifying every checksum.
// Reads go through the FaultRecoveryRead point.
func OpenSegment(path string) (*Image, error) {
	if err := faultinject.Hit(FaultRecoveryRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := DecodeSegment(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.File = path
		}
		return nil, err
	}
	return img, nil
}
