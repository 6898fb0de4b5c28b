package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildTestCFG parses one function body and builds its CFG.
func buildTestCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body)
}

// TestCFGGolden pins the successor structure of the constructs the dataflow
// engine depends on: goto, labeled break/continue, select with default, and
// defer before panic.
func TestCFGGolden(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // exact String() output
	}{
		{
			name: "goto_forward_and_back",
			body: `
	x := 0
	goto skip
	x = 1
skip:
	x++
	if x > 3 {
		goto skip
	}
	_ = x`,
			want: `b0 entry -> b1
b1 body -> b4
b3 unreachable -> b4
b4 label.skip [x > 3] -> b5 b6
b5 if.then -> b4
b6 if.after -> b7
b7 exit
`,
		},
		{
			name: "labeled_break_continue",
			body: `
outer:
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if j == i {
				continue outer
			}
			if j > i {
				break outer
			}
		}
	}`,
			want: `b0 entry -> b1
b1 body -> b2
b2 label.outer -> b3
b3 for.head [i < 9] -> b4 b5
b4 for.body -> b7
b5 for.after -> b15
b6 for.post -> b3
b7 for.head [j < 9] -> b8 b9
b8 for.body [j == i] -> b11 b12
b9 for.after -> b6
b10 for.post -> b7
b11 if.then -> b6
b12 if.after [j > i] -> b13 b14
b13 if.then -> b5
b14 if.after -> b10
b15 exit
`,
		},
		{
			name: "select_with_default",
			body: `
	var c chan int
	select {
	case v := <-c:
		_ = v
	case c <- 1:
	default:
		return
	}
	_ = c`,
			want: `b0 entry -> b1
b1 select.head -> b3 b4 b5
b2 select.after -> b6
b3 select.case -> b2
b4 select.case -> b2
b5 select.default -> b6
b6 exit
`,
		},
		{
			name: "defer_before_panic",
			body: `
	mu := 0
	defer func() { _ = mu }()
	if mu == 0 {
		panic("boom")
	}
	_ = mu`,
			want: `b0 entry -> b1
b1 body [mu == 0] -> b2 b3
b2 if.then -> b4
b3 if.after -> b4
b4 exit
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildTestCFG(t, tc.body)
			got := g.String()
			if got != tc.want {
				t.Errorf("CFG mismatch\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestCFGPredecessors checks Preds mirror Succs exactly.
func TestCFGPredecessors(t *testing.T) {
	g := buildTestCFG(t, `
loop:
	for i := 0; i < 4; i++ {
		switch i {
		case 0:
			continue loop
		case 1:
			break loop
		default:
			goto done
		}
	}
done:
	return`)
	fwd := make(map[*Block]map[*Block]int)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if fwd[s] == nil {
				fwd[s] = make(map[*Block]int)
			}
			fwd[s][b]++
		}
	}
	for _, b := range g.Blocks {
		back := make(map[*Block]int)
		for _, p := range b.Preds {
			back[p]++
		}
		want := fwd[b]
		if len(back) != len(want) {
			t.Errorf("b%d: preds %v != inverted succs %v", b.Index, back, want)
			continue
		}
		for p, n := range want {
			if back[p] != n {
				t.Errorf("b%d: pred b%d count = %d, want %d", b.Index, p.Index, back[p], n)
			}
		}
	}
}

// TestCFGShortCircuit checks && / || decompose into per-leaf condition
// blocks with true-first edge ordering.
func TestCFGShortCircuit(t *testing.T) {
	g := buildTestCFG(t, `
	a, b, c := 1, 2, 3
	if a < b && (b < c || c < 9) {
		_ = a
	}`)
	var leaves []string
	for _, blk := range g.Blocks {
		if blk.Cond != nil {
			leaves = append(leaves, renderNode(blk.Cond))
		}
	}
	want := []string{"a < b", "b < c", "c < 9"}
	if strings.Join(leaves, ",") != strings.Join(want, ",") {
		t.Errorf("condition leaves = %v, want %v", leaves, want)
	}
	// Every leaf block must have exactly two successors (true, false).
	for _, blk := range g.Blocks {
		if blk.Cond != nil && len(blk.Succs) != 2 {
			t.Errorf("cond block b%d has %d successors, want 2", blk.Index, len(blk.Succs))
		}
	}
}

// TestCFGReversePostorder checks entry comes first and every non-back edge
// source precedes its target.
func TestCFGReversePostorder(t *testing.T) {
	g := buildTestCFG(t, `
	for i := 0; i < 3; i++ {
		if i == 1 {
			continue
		}
	}
	return`)
	rpo := g.ReversePostorder()
	if len(rpo) == 0 || rpo[0] != g.Entry {
		t.Fatalf("reverse postorder does not start at entry")
	}
	heads := g.LoopHeads()
	if len(heads) != 1 {
		t.Errorf("loop heads = %d, want 1 (the for head)", len(heads))
	}
	for h := range heads {
		if h.Kind != "for.head" {
			t.Errorf("loop head kind = %q, want for.head", h.Kind)
		}
	}
}
