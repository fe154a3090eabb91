package cluster

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// roundTrip frames msg as an envelope, decodes it, and returns the decoded
// payload.
func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: -1, To: 42, Msg: msg})
	if err != nil {
		t.Fatalf("AppendFrame(%T): %v", msg, err)
	}
	env, err := transport.DecodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("DecodeFrame(%T): %v", msg, err)
	}
	if env.From != -1 || env.To != 42 {
		t.Fatalf("%T: envelope header mangled: %+v", msg, env)
	}
	return env.Msg
}

// wireSamples is one or more fixed values of every protocol message.
// TestWireRoundTrips requires every row of wireMessages to appear here;
// the truncation and invalid-partition tests walk the same table.
func wireSamples() []transport.WireMessage {
	p := hashspace.Partition{Prefix: 0b1011, Level: 4}
	g := core.GroupID{Bits: 0b110, Len: 3}
	owner := VnodeName{Snode: 3, Local: 7}
	ref := ownerRef{Vnode: owner, Host: 3}
	routes := []routeEntry{
		{Partition: p, Ref: ref, Epoch: 1 << 40},
		{Partition: hashspace.Partition{}, Ref: ownerRef{Vnode: VnodeName{Snode: 1}, Host: 1}},
	}
	lpdr := lpdrState{Group: g, Level: 4, Leader: 3, Members: []memberInfo{
		{Vnode: owner, Host: 3, Count: 8}, {Vnode: VnodeName{Snode: 5, Local: 2}, Host: 5, Count: 9},
	}}
	return []transport.WireMessage{
		lookupReq{Op: 9, R: 1 << 60},
		lookupResp{Op: 10, Owner: owner, Host: 3, Partition: p, Group: g, Leader: 5, Next: 6, Err: "boom"},
		lookupResp{Op: 11}, // zero-valued optional fields
		batchReq{Op: 12, Kind: opPut, Items: []batchItem{
			{Key: "a", Value: []byte("va")},
			{Key: "b"}, // nil value (deletes, gets)
		}, Known: 77},
		batchReq{Op: 13, Kind: opGet}, // empty batch
		batchResp{Op: 14, Results: []batchItemResp{
			{Value: []byte("v"), Found: true},
			{Err: "missing"},
			{Next: 6}, // a redirect
		}, Served: routes},
		replWriteReq{Op: 15, Kind: opDel, Sets: []replWriteSet{
			{Partition: p, Items: []batchItem{{Key: "k", Value: []byte("v")}}},
			{Partition: p.Sibling()},
		}},
		ackResp{Op: 16, Err: "lagging"},
		ackResp{Op: 16},
		replProbeReq{Op: 17, Digests: []partDigest{
			{Partition: p, Count: 321, Sum: 1<<63 + 5, Group: core.GroupID{Bits: 0b10, Len: 2}},
			{Partition: p.Sibling()}, // empty bucket
		}},
		replProbeReq{Op: 17}, // nothing placed at the host
		replProbeResp{Op: 18, OutOfSync: []hashspace.Partition{p, p.Sibling()}},
		replProbeResp{Op: 18}, // all in sync
		pingReq{Op: 19},
		pingResp{Op: 20},
		migCommitReq{Op: 26, To: owner, Group: core.GroupID{Bits: 0b10, Len: 2}, Level: 4,
			Partition: p, Items: []migItem{
				{Key: "live", Value: []byte("v1")},
				{Key: "gone", Del: true},
				{Key: "empty"}, // nil value, not deleted
			}, Ver: 41},
		migCommitReq{Op: 27, To: owner, Partition: p}, // empty delta
		loadReportReq{Op: 28},
		loadReportResp{Op: 29, Vnodes: 4, Keys: 12345, Quota: 0.375,
			Reads: 1234.5, Writes: 0.25, Bytes: 9.75e6},
		loadReportResp{Op: 30}, // all-zero floats
		createVnodeReq{Op: 31, Bootstrap: true},
		createVnodeResp{Op: 32, Vnode: owner, Group: g, Err: "no group"},
		joinGroupReq{Op: 33, Group: g, NewVnode: owner, NewHost: 3},
		joinGroupResp{Op: 34, Group: g, Retry: true, Next: 5, Err: "leader moved"},
		leaveVnodeReq{Op: 35, Vnode: owner, Group: g},
		leaveVnodeResp{Op: 36, Retry: true, Group: g, Next: 5, Err: "busy"},
		splitAllReq{Op: 37, Group: g, NewLevel: 5},
		transferReq{Op: 38, Group: g, From: owner, To: VnodeName{Snode: 5, Local: 2}, ToHost: 5, Level: 4},
		transferResp{Op: 39, Partition: p, Keys: 77},
		transferResp{Op: 40, Err: "no transferable partition"},
		shipVnodeReq{Op: 41, Vnode: owner},
		groupInit{Op: 43, State: lpdr},
		lpdrSyncMsg{State: lpdr, Dissolved: []core.GroupID{{Bits: 0b11, Len: 2}}},
		lpdrSyncMsg{State: lpdrState{Group: g}}, // no members, nothing dissolved
		bootstrapInfo{Owner: ref},
		snodeLeavingMsg{Leaving: 4, Routes: routes, Crashed: true},
		snodeLeavingMsg{Leaving: 4},
		snodeRecoveredMsg{Recovered: 4, Routes: routes},
		viewUpdate{Epoch: 9, Snodes: []transport.NodeID{1, 2, 3}},
		viewUpdate{Epoch: 10},
		replSyncReq{Op: 44, Partition: p, Data: map[string][]byte{"k": []byte("v"), "nil": nil},
			Ver: 12, Group: g},
		replSyncReq{Op: 45, Partition: p, Data: map[string][]byte{}}, // empty bucket
		replDropMsg{Partitions: []hashspace.Partition{p, p.Sibling()}},
		promoteQueryReq{Op: 46, Partition: p, Dead: 4},
		promoteQueryResp{Op: 47, Has: true, Exact: true, Ver: 99, Owns: true, Level: 9},
	}
}

// tagEntry is one wireTag*/walTag* constant, or one `name = value` line
// of tags.lock.
type tagEntry struct {
	name  string
	value uint16
}

// readTagsLock reads the tag registry in file order, retired entries
// included.
func readTagsLock(t *testing.T) []tagEntry {
	t.Helper()
	data, err := os.ReadFile("tags.lock")
	if err != nil {
		t.Fatal(err)
	}
	var out []tagEntry
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, "=")
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 16)
		if !ok || err != nil {
			t.Fatalf("tags.lock:%d: want \"name = value\", got %q", i+1, line)
		}
		out = append(out, tagEntry{strings.TrimSpace(name), uint16(v)})
	}
	return out
}

// tagConsts reads every wireTag*/walTag* constant of the package's
// non-test sources, in declaration order.
func tagConsts(t *testing.T) []tagEntry {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []tagEntry
	for _, fn := range files {
		if strings.HasSuffix(fn, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "wireTag") && !strings.HasPrefix(id.Name, "walTag") {
						continue
					}
					var lit *ast.BasicLit
					if i < len(vs.Values) {
						lit, _ = vs.Values[i].(*ast.BasicLit)
					}
					if lit == nil || lit.Kind != token.INT {
						t.Fatalf("%s: tag %s is not an integer literal", fset.Position(id.Pos()), id.Name)
					}
					v, err := strconv.ParseUint(lit.Value, 0, 16)
					if err != nil {
						t.Fatalf("%s: tag %s: %v", fset.Position(id.Pos()), id.Name, err)
					}
					out = append(out, tagEntry{id.Name, uint16(v)})
				}
			}
		}
	}
	return out
}

// TestTagRegistry holds the tag number space to tags.lock, which freezes
// it as a wire- and disk-compatibility contract.  The wireTag*/walTag*
// constants and the registry agree name for name and value for value; no
// value is claimed twice across both families, retired numbers included;
// and each family's constants are exactly its table's rows, wireMessages
// for wireTag* and walRecords for walTag*.
func TestTagRegistry(t *testing.T) {
	consts := tagConsts(t)
	declared := make(map[string]uint16)
	holder := make(map[uint16]string)
	for _, c := range consts {
		if prev, dup := holder[c.value]; dup {
			t.Errorf("%s = %d reuses the value of %s: pick the next free number", c.name, c.value, prev)
		}
		holder[c.value] = c.name
		declared[c.name] = c.value
	}
	locked := make(map[string]bool)
	claimed := make(map[uint16]string)
	for _, e := range readTagsLock(t) {
		if prev, dup := claimed[e.value]; dup {
			t.Errorf("tags.lock: %s and %s both claim %d", prev, e.name, e.value)
		}
		claimed[e.value] = e.name
		if e.name == "retired" {
			continue
		}
		locked[e.name] = true
		switch v, ok := declared[e.name]; {
		case !ok:
			t.Errorf("tags.lock: %s = %d has no constant: tags are frozen, so mark it retired", e.name, e.value)
		case v != e.value:
			t.Errorf("%s = %d, but tags.lock says %d: tags are never renumbered", e.name, v, e.value)
		}
	}
	wireRows, walRows := make(map[uint16]bool), make(map[uint16]bool)
	for _, row := range wireMessages {
		wireRows[row.tag] = true
	}
	for _, row := range walRecords {
		walRows[row.tag] = true
	}
	for _, c := range consts {
		if !locked[c.name] {
			t.Errorf("%s = %d is not in tags.lock: append it", c.name, c.value)
		}
		rows, table := wireRows, "wireMessages"
		if strings.HasPrefix(c.name, "walTag") {
			rows, table = walRows, "walRecords"
		}
		if !rows[c.value] {
			t.Errorf("%s = %d has no %s row", c.name, c.value, table)
		}
		delete(rows, c.value)
	}
	for tag := range wireRows {
		t.Errorf("wireMessages row %d has no wireTag constant", tag)
	}
	for tag := range walRows {
		t.Errorf("walRecords row %d has no walTag constant", tag)
	}
}

// TestNoHandlerForwards holds the one routing discipline: a hop that
// cannot answer a request redirects its caller, so no function passes on
// a request it did not build, and no function that handles a request
// builds another of its type.  Request types are the package's structs
// with an Op field and no replyOp method; a function handles the request
// types of its parameters.  Reading the non-test sources with go/parser,
// the test fails when the message of a send, or what a build function
// handed to call, ask, askOrdered or chase returns, is a request value
// other than a composite literal built in the same function — a received
// request, or a copy of one — or is a request of a type the function
// handles.
func TestNoHandlerForwards(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var parsed []*ast.File
	structs := make(map[string]*ast.StructType)
	replies := make(map[string]bool)
	for _, fn := range files {
		if strings.HasSuffix(fn, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					structs[n.Name.Name] = st
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "replyOp" {
					replies[types.ExprString(n.Recv.List[0].Type)] = true
				}
			}
			return true
		})
	}
	fieldType := func(typ, field string) string {
		if st := structs[strings.TrimPrefix(typ, "*")]; st != nil {
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.Name == field {
						return types.ExprString(f.Type)
					}
				}
			}
		}
		return ""
	}
	isRequest := func(typ string) bool {
		typ = strings.TrimPrefix(typ, "*")
		return fieldType(typ, "Op") != "" && !replies[typ]
	}
	if !isRequest("joinGroupReq") || isRequest("joinGroupResp") || isRequest("lpdrSyncMsg") {
		t.Fatal("request types misclassified")
	}
	calleeName := func(e ast.Expr) string {
		for {
			switch f := e.(type) {
			case *ast.Ident:
				return f.Name
			case *ast.SelectorExpr:
				return f.Sel.Name
			case *ast.IndexExpr:
				e = f.X
			case *ast.IndexListExpr:
				e = f.X
			default:
				return ""
			}
		}
	}

	checked := 0
	for _, f := range parsed {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// A flow-insensitive pass types the function's locals: a name
			// is tainted once it holds anything but a literal built here.
			vars := make(map[string]string)
			tainted := make(map[string]bool)
			var typeOf func(ast.Expr) string
			typeOf = func(e ast.Expr) string {
				switch e := e.(type) {
				case *ast.Ident:
					return vars[e.Name]
				case *ast.ParenExpr:
					return typeOf(e.X)
				case *ast.StarExpr:
					return strings.TrimPrefix(typeOf(e.X), "*")
				case *ast.UnaryExpr:
					if t := typeOf(e.X); e.Op == token.AND && t != "" {
						return "*" + t
					}
				case *ast.SelectorExpr:
					return fieldType(typeOf(e.X), e.Sel.Name)
				case *ast.CompositeLit:
					if e.Type != nil {
						return types.ExprString(e.Type)
					}
				}
				return ""
			}
			var built func(ast.Expr) bool
			built = func(e ast.Expr) bool {
				switch e := e.(type) {
				case *ast.CompositeLit:
					return true
				case *ast.ParenExpr:
					return built(e.X)
				case *ast.UnaryExpr:
					return e.Op == token.AND && built(e.X)
				case *ast.Ident:
					return !tainted[e.Name]
				}
				return false
			}
			bind := func(id *ast.Ident, typ string, fresh bool) {
				if typ != "" && id.Name != "_" {
					vars[id.Name] = typ
					tainted[id.Name] = tainted[id.Name] || !fresh
				}
			}
			params := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					for _, name := range field.Names {
						bind(name, types.ExprString(field.Type), false)
					}
				}
			}
			params(fd.Recv)
			params(fd.Type.Params)
			handles := make(map[string]bool)
			for _, field := range fd.Type.Params.List {
				if typ := strings.TrimPrefix(types.ExprString(field.Type), "*"); isRequest(typ) {
					handles[typ] = true
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					params(n.Type.Params)
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								bind(id, typeOf(n.Rhs[i]), built(n.Rhs[i]))
							}
						}
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						switch {
						case i < len(n.Values):
							typ := typeOf(n.Values[i])
							if n.Type != nil {
								typ = types.ExprString(n.Type)
							}
							bind(id, typ, built(n.Values[i]))
						case n.Type != nil:
							bind(id, types.ExprString(n.Type), true) // the zero value
						}
					}
				case *ast.RangeStmt:
					coll := typeOf(n.X)
					if elem, ok := strings.CutPrefix(coll, "chan "); ok {
						if id, ok := n.Key.(*ast.Ident); ok {
							bind(id, elem, false)
						}
					} else if elem, ok := strings.CutPrefix(coll, "[]"); ok {
						if id, ok := n.Value.(*ast.Ident); ok {
							bind(id, elem, false)
						}
					}
				}
				return true
			})

			check := func(e ast.Expr) {
				checked++
				typ := strings.TrimPrefix(typeOf(e), "*")
				switch {
				case !isRequest(typ):
				case !built(e):
					t.Errorf("%s: %s passes on a %s it did not build; answer the caller with a redirect instead",
						fset.Position(e.Pos()), fd.Name.Name, typ)
				case handles[typ]:
					t.Errorf("%s: %s handles a %s and builds another for a peer; answer the caller with a redirect instead",
						fset.Position(e.Pos()), fd.Name.Name, typ)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch calleeName(c.Fun) {
				case "send":
					if len(c.Args) == 3 {
						check(c.Args[2])
					}
				case "call", "ask", "askOrdered", "chase":
					for _, arg := range c.Args {
						if fl, ok := arg.(*ast.FuncLit); ok {
							ast.Inspect(fl.Body, func(n ast.Node) bool {
								if r, ok := n.(*ast.ReturnStmt); ok {
									for _, res := range r.Results {
										check(res)
									}
								}
								return true
							})
						}
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("found no send or call to check")
	}
}

// TestWireRoundTrips round-trips every protocol message through the frame
// codec and requires an exact value match, and a sample for every row of
// the message table, so a message cannot ship untested from either end.
// (TestTagRegistry ties the rows to the constants and to tags.lock.)
func TestWireRoundTrips(t *testing.T) {
	missing := make(map[uint16]bool)
	for _, row := range wireMessages {
		missing[row.tag] = true
	}
	for _, want := range wireSamples() {
		delete(missing, want.WireTag())
		got := roundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got  %+v\n want %+v", want, got, want)
		}
	}
	for tag := range missing {
		t.Errorf("wire tag %d has no sample in wireSamples", tag)
	}
}

// TestWireTruncatedFrames cuts every sample frame at every byte offset:
// each prefix must decode to a clean error, never panic.
func TestWireTruncatedFrames(t *testing.T) {
	items := make([]batchItem, 16)
	for i := range items {
		items[i] = batchItem{Key: fmt.Sprintf("key-%04d", i), Value: []byte("0123456789abcdef")}
	}
	msg := batchReq{Op: 77, Kind: opPut, Items: items}
	for _, m := range append(wireSamples(), msg) {
		frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := transport.DecodeFrame(body[:cut]); err == nil {
				t.Fatalf("%T: truncated frame (%d/%d bytes) decoded without error", m, cut, len(body))
			}
		}
	}
	// Flipping the length of the items array to a huge value must error,
	// not allocate.
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), frame[4:]...)
	// Body layout: version, flags, From varint, To varint, tag uvarint,
	// Op uvarint, Kind varint, then the item count.
	off := 2
	for n := 0; n < 4; n++ { // From, To, tag, Op occupy varints
		_, w := binary.Uvarint(corrupt[off:])
		off += w
	}
	_, w := binary.Varint(corrupt[off:]) // Kind
	off += w
	huge := binary.AppendUvarint(nil, 1<<50)
	corrupt = append(corrupt[:off], append(huge, corrupt[off:]...)...)
	if _, err := transport.DecodeFrame(corrupt); err == nil {
		t.Fatal("frame with a corrupt huge item count decoded without error")
	}
}

// TestWireRejectsInvalidPartition: a structurally valid frame carrying an
// out-of-range partition (level beyond MaxLevel, or stray prefix bits) or
// an out-of-range bare splitlevel must decode to an error — downstream
// bookkeeping indexes arrays by level, so an unvalidated level would be a
// remote panic.  Encoders do not validate, so the bad value is framed as
// is; every message that carries a partition is covered.
func TestWireRejectsInvalidPartition(t *testing.T) {
	// decodes frames m as is and reports whether the frame was accepted.
	decodes := func(m transport.WireMessage) bool {
		t.Helper()
		frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		_, err = transport.DecodeFrame(frame[4:])
		return err == nil
	}
	for _, bad := range []struct {
		name string
		p    hashspace.Partition
	}{
		{"level-past-max", hashspace.Partition{Level: hashspace.MaxLevel + 1}},
		{"level-huge", hashspace.Partition{Level: 255}},
		{"prefix-bits-above-level", hashspace.Partition{Prefix: 0b111, Level: 1}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			for _, m := range []transport.WireMessage{
				lookupResp{Partition: bad.p},
				batchResp{Served: []routeEntry{{Partition: bad.p}}},
				replWriteReq{Sets: []replWriteSet{{Partition: bad.p}}},
				replProbeReq{Digests: []partDigest{{Partition: bad.p}}},
				replProbeResp{OutOfSync: []hashspace.Partition{bad.p}},
				migCommitReq{Partition: bad.p},
				transferResp{Partition: bad.p},
				snodeLeavingMsg{Routes: []routeEntry{{Partition: bad.p}}},
				snodeRecoveredMsg{Routes: []routeEntry{{Partition: bad.p}}},
				replSyncReq{Partition: bad.p},
				replDropMsg{Partitions: []hashspace.Partition{bad.p}},
				promoteQueryReq{Partition: bad.p},
			} {
				if decodes(m) {
					t.Errorf("%T with partition (prefix=%b, level=%d) decoded without error", m, bad.p.Prefix, bad.p.Level)
				}
			}
		})
	}
	for _, m := range []transport.WireMessage{
		splitAllReq{NewLevel: hashspace.MaxLevel + 1},
		transferReq{Level: 255},
		migCommitReq{Level: 255},
		groupInit{State: lpdrState{Level: hashspace.MaxLevel + 1}},
		lpdrSyncMsg{State: lpdrState{Level: 255}},
		promoteQueryResp{Level: hashspace.MaxLevel + 1},
	} {
		if decodes(m) {
			t.Errorf("%T with an out-of-range splitlevel decoded without error", m)
		}
	}
	// A group identifier longer than any split can produce (GroupID.Split
	// stops at 63 digits) is rejected, not accepted as is.
	for _, n := range []uint8{maxGroupLen + 1, 255} {
		bad := core.GroupID{Len: n}
		for _, m := range []transport.WireMessage{
			lookupResp{Group: bad},
			migCommitReq{Group: bad},
			replProbeReq{Digests: []partDigest{{Group: bad}}},
			createVnodeResp{Group: bad},
			replSyncReq{Group: bad},
		} {
			if decodes(m) {
				t.Errorf("%T with a group identifier of %d digits decoded without error", m, n)
			}
		}
	}
	// Nor may a length that does not fit its uint8 wrap into range: 259 is
	// not 3.  A struct cannot hold it, so splice the uvarint in by hand —
	// a lookupResp ends Group.Len, Leader, Next, Err, here one zero byte
	// each.
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: lookupResp{Op: 1}})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	lenOff := len(body) - 4
	spliced := append([]byte(nil), body[:lenOff]...)
	spliced = binary.AppendUvarint(spliced, 259)
	spliced = append(spliced, body[lenOff+1:]...)
	if _, err := transport.DecodeFrame(spliced); err == nil {
		t.Error("lookupResp with a group length of 259 decoded without error (as length 3?)")
	}
}

// codecBenchMessages are the three data-plane messages at the benchmark's
// batch size: 64 items of 128 bytes.
func codecBenchMessages() []transport.WireMessage {
	p := hashspace.Partition{Prefix: 0b1011, Level: 4}
	items := make([]batchItem, 64)
	results := make([]batchItemResp, len(items))
	for i := range items {
		items[i] = batchItem{Key: fmt.Sprintf("user%012d", i), Value: make([]byte, 128)}
		results[i] = batchItemResp{Value: items[i].Value, Found: true}
	}
	served := []routeEntry{{Partition: p, Ref: ownerRef{Vnode: VnodeName{Snode: 3, Local: 7}, Host: 3}}}
	return []transport.WireMessage{
		batchReq{Op: 1, Kind: opPut, Items: items},
		batchResp{Op: 1, Results: results, Served: served},
		replWriteReq{Op: 1, Kind: opPut, Sets: []replWriteSet{{Partition: p, Items: items, Ver: 9, Group: core.GroupID{Bits: 0b110, Len: 3}}}},
	}
}

// TestWireEncodeDoesNotAllocate pins the encode side of the data plane at
// zero allocations per frame into a pre-sized buffer.  The walker lives on
// the encoder's stack only while every call down to the element walks is
// static; an interface or func-value hop the compiler cannot see through
// moves it to the heap, once per frame.
func TestWireEncodeDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64<<10)
	for _, m := range codecBenchMessages() {
		if n := testing.AllocsPerRun(100, func() { buf = m.AppendWire(buf[:0]) }); n != 0 {
			t.Errorf("%T.AppendWire: %v allocations per frame, want 0", m, n)
		}
	}
	// Journaling a replica write, through the helper every record takes
	// (FsyncOff: the log's flusher drains and reuses its own buffers).
	log, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := &Snode{dur: &durable{log: log}}
	rec := walReplWriteRec{Kind: opPut, Sets: codecBenchMessages()[2].(replWriteReq).Sets}
	if n := testing.AllocsPerRun(100, func() { s.journal(rec.walTag(), rec.fields) }); n != 0 {
		t.Errorf("journal(walReplWriteRec): %v allocations per record, want 0", n)
	}
}

func BenchmarkWireEncode(b *testing.B) {
	buf := make([]byte, 0, 64<<10)
	for _, m := range codecBenchMessages() {
		b.Run(strings.TrimPrefix(fmt.Sprintf("%T", m), "cluster."), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = m.AppendWire(buf[:0])
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, m := range codecBenchMessages() {
		frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimPrefix(fmt.Sprintf("%T", m), "cluster."), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := transport.DecodeFrame(frame[4:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
