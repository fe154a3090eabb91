package wiretagtest // want `registry entry wireTagGone = 7 in .*tags.lock has no constant`

// RegisterWire stands in for the transport registry.
func RegisterWire(tag uint16, fn func([]byte) any) {}

func decoderOf[T any]() func([]byte) any { return func([]byte) any { var m T; return m } }

const (
	wireTagPing  uint16 = 1
	wireTagPong  uint16 = 2
	wireTagDup   uint16 = 2  // want `tag wireTagDup reuses value 2 already held by wireTagPong` `tag wireTagDup = 2 collides with registry entry wireTagPong`
	wireTagNovel uint16 = 9  // want `tag wireTagNovel = 9 is not registered`
	wireTagMoved uint16 = 5  // want `tag wireTagMoved = 5 disagrees with registry \(.*tags.lock says 4\)`
	wireTagBurn  uint16 = 6  // want `tag wireTagBurn = 6 collides with registry entry retired`
	wireTagNoDec uint16 = 8  // want `wire tag wireTagNoDec has no decoder`
	wireTagNoEnc uint16 = 10 // want `wire tag wireTagNoEnc has no encoder`
)

const (
	walTagPut   uint16 = 32
	walTagNoEnc uint16 = 33 // want `WAL tag walTagNoEnc has no encoder`
	walTagNoDec uint16 = 34 // want `WAL tag walTagNoDec has no decoder`
)

type ping struct{}

func (ping) WireTag() uint16 { return wireTagPing }

type pong struct{}

func (pong) WireTag() uint16 { return wireTagPong }

type dup struct{}

func (dup) WireTag() uint16 { return wireTagDup }

type novel struct{}

func (novel) WireTag() uint16 { return wireTagNovel }

type moved struct{}

func (moved) WireTag() uint16 { return wireTagMoved }

type burn struct{}

func (burn) WireTag() uint16 { return wireTagBurn }

type noDec struct{}

func (noDec) WireTag() uint16 { return wireTagNoDec }

type noEnc struct{}

// wireMessages is the message table; wireTagNoDec has no row, and
// wireTagNoEnc has a row but no WireTag method.
var wireMessages = []struct {
	tag uint16
	dec func([]byte) any
}{
	{wireTagPing, decoderOf[ping]()},
	{wireTagPong, decoderOf[pong]()},
	{wireTagDup, decoderOf[dup]()},
	{wireTagNovel, decoderOf[novel]()},
	{wireTagMoved, decoderOf[moved]()},
	{wireTagBurn, decoderOf[burn]()},
	{wireTagNoEnc, decoderOf[noEnc]()},
}

func init() {
	for _, row := range wireMessages {
		RegisterWire(row.tag, row.dec)
	}
}

type putRec struct{}

func (*putRec) walTag() uint16 { return walTagPut }

type noDecRec struct{}

func (*noDecRec) walTag() uint16 { return walTagNoDec }

type noEncRec struct{}

// walRecords is the record table; walTagNoDec has no row, and
// walTagNoEnc has a row but no walTag method.  A tag merely written by
// some encode function, as encodeHeader does, is not an encoder side.
var walRecords = []struct {
	tag uint16
	new func() any
}{
	{walTagPut, func() any { return new(putRec) }},
	{walTagNoEnc, func() any { return new(noEncRec) }},
}

func encodeHeader(buf []byte) []byte {
	return append(buf, byte(uint64(walTagNoEnc)))
}
