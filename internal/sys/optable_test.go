package sys

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
)

// TestOpTable walks the op table. Every row has a name and an obs opcode.
// Every row the kernel serves has an arm: a call on a fresh kernel is
// answered, if only with an errno, and never with ENOSYS. And every
// request a Sys method or a ring Op constructor builds sets only the
// register fields and the tail fields its row carries, so per-op decode
// never refuses an honest call.
func TestOpTable(t *testing.T) {
	for num := uint64(1); num <= MaxInternalOpNum; num++ {
		o := lookup(num)
		if o.name == "" || OpName(num) == fmt.Sprintf("sys%d", num) {
			t.Errorf("op %d has no row or no name", num)
		}
		if num >= obs.MaxSyscallOps {
			t.Errorf("op %s (%d) is outside the obs opcode space %d", o.name, num, obs.MaxSyscallOps)
		}
		switch {
		case o.class != classRead && o.class != classLogged && o.class != classInternal:
			continue // served by core, outside the kernel state
		case num == NumBatch || num == NumPreadMap || num == NumPreadUnmap:
			continue // core serves these through other rows: a batch's entries, NumPageMap and NumPageUnmap
		}
		// A run's entry number rides in Code (NumFsRun).
		k := newTestKernel()
		w := k.DispatchWrite(WriteOp{Num: num, PID: proc.InitPID, Code: int(NumSeek)})
		r := k.DispatchRead(ReadOp{Num: num, PID: proc.InitPID})
		if w.Errno == ENOSYS && r.Errno == ENOSYS {
			t.Errorf("op %s (%d) has no dispatch arm", o.name, num)
		}
	}

	nums := tableNums(t)
	registers := map[string]bool{"Num": true, "PID": true, "FD": true, "VA": true, "Len": true, "Size": true, "TID": true}
	fset := token.NewFileSet()
	for _, file := range []string{"sys.go", "ring.go", "submit.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !(isSysMethod(fn) || fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Op")) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isIdent(lit.Type, "WriteOp") {
					return true
				}
				var num uint64
				var keys []string
				for _, el := range lit.Elts {
					kv := el.(*ast.KeyValueExpr)
					key := kv.Key.(*ast.Ident).Name
					if key == "Num" {
						if id, isID := kv.Value.(*ast.Ident); isID {
							num = nums[id.Name]
						}
					} else if !registers[key] {
						keys = append(keys, key)
					}
				}
				at := fmt.Sprintf("%s: %s", fset.Position(lit.Pos()), fn.Name.Name)
				if num == 0 {
					t.Errorf("%s builds a request whose number is not a table row", at)
					return true
				}
				for _, key := range keys {
					if !carries(num, key) {
						t.Errorf("%s sets %s, which %s's row does not carry", at, key, OpName(num))
					}
				}
				return true
			})
		}
	}
}

// tableNums maps each Num constant to its number through opTable's own
// declaration: a row is keyed by the constant and named by its row call's
// first argument.
func tableNums(t *testing.T) map[string]uint64 {
	f, err := parser.ParseFile(token.NewFileSet(), "ops.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]uint64)
	for num := uint64(1); num <= MaxInternalOpNum; num++ {
		byName[OpName(num)] = num
	}
	nums := make(map[string]uint64)
	ast.Inspect(f, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if call, ok := kv.Value.(*ast.CallExpr); ok && isIdent(call.Fun, "row") {
			name, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
			nums[kv.Key.(*ast.Ident).Name] = byName[name]
		}
		return true
	})
	if nums["NumOpen"] != NumOpen || nums["NumSockTabGet"] != MaxInternalOpNum {
		t.Fatalf("opTable's keys do not resolve: NumOpen %d, NumSockTabGet %d", nums["NumOpen"], nums["NumSockTabGet"])
	}
	return nums
}

func isSysMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	return ok && isIdent(star.X, "Sys")
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// carries reports whether num's row carries the tail field called name.
func carries(num uint64, name string) bool {
	for i := range tailFields {
		if tailFields[i].name == name {
			return lookup(num).tail&(1<<i) != 0
		}
	}
	return false
}
