package mem

import (
	"reflect"
	"testing"
)

// fetchMemoGeometries are the L1I shapes FuzzFetchMemoMatchesReference
// runs: Table 1's, and two where the next-line prefetch can evict the
// line being fetched (1 set × 2 ways; 2 sets × 1 way).
var fetchMemoGeometries = []CacheConfig{
	DefaultHierarchyConfig().L1I,
	{Name: "L1I", SizeBytes: 2 * 64, Ways: 2, LineBytes: 64, LatencyCycles: 2},
	{Name: "L1I", SizeBytes: 2 * 64, Ways: 1, LineBytes: 64, LatencyCycles: 2},
}

// fetchMemoLines are the line numbers a fetch stream jumps to and data
// accesses touch. Five of them share a Table-1 L1I set (line mod 128),
// so that geometry evicts too, and most share a memo slot (line mod 16).
var fetchMemoLines = []uint64{0, 1, 2, 3, 16, 17, 128, 129, 256, 257, 384, 512, 640, 1000}

// FuzzFetchMemoMatchesReference drives two hierarchies with the same
// operations. The reference empties its fetch memo before every
// AccessInstr, so each of its fetches takes the full path: tag scan,
// next-line probe and prefetch, demand fill. ops is read two bytes at a
// time, an opcode and an argument: sequential fetches, backward jumps of
// up to 23 instructions (loops that straddle a line boundary), jumps into
// fetchMemoLines, data reads and writes, and occasionally FlushAll. Every
// return value, Hierarchy.Stats, and every cache level and the TLB must
// match: the return values, Stats and the L1I after each operation, the
// other levels and the TLB at the end.
func FuzzFetchMemoMatchesReference(f *testing.F) {
	// On each geometry: a loop that straddles lines 0 and 1, a jump into
	// line 16, which shares line 0's memo slot, and back into the loop.
	loop := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 3, 0, 0, 0, 0, 0, 0, 8, 3,
		11, 4, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 3}
	for g := range fetchMemoGeometries {
		f.Add(uint8(g), loop)
	}
	const instBytes = 16 // the simulated ISA's instruction size
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		cfg := DefaultHierarchyConfig()
		cfg.L1I = fetchMemoGeometries[int(geom)%len(fetchMemoGeometries)]
		got, ref := NewHierarchy(cfg), NewHierarchy(cfg)
		var now, pc uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			now += 1 + uint64(arg%3)
			line := fetchMemoLines[int(arg)%len(fetchMemoLines)] * 64
			var g, r any
			switch k := op % 16; {
			case k < 14:
				switch {
				case k < 8:
					pc += instBytes
				case k < 11:
					pc -= min(pc, uint64(arg%24)*instBytes)
				default:
					pc = line + uint64(arg/16%4)*instBytes
				}
				ref.iMemo = [iMemoEntries]iMemoEntry{}
				g, r = got.AccessInstr(now, pc), ref.AccessInstr(now, pc)
			case k < 15:
				write := op&16 != 0
				gd, gok := got.AccessData(now, line+uint64(arg%8)*8, write)
				rd, rok := ref.AccessData(now, line+uint64(arg%8)*8, write)
				g, r = [2]any{gd, gok}, [2]any{rd, rok}
			default:
				if arg%4 != 0 {
					continue
				}
				got.FlushAll()
				ref.FlushAll()
			}
			if g != r {
				t.Fatalf("op %d (%d, %d) at pc %#x: returned %v, reference %v", i/2, op, arg, pc, g, r)
			}
			if got.Stats != ref.Stats {
				t.Fatalf("op %d (%d, %d) at pc %#x: Stats %+v, reference %+v", i/2, op, arg, pc, got.Stats, ref.Stats)
			}
			if !reflect.DeepEqual(got.L1I, ref.L1I) {
				t.Fatalf("op %d (%d, %d) at pc %#x: L1I differs from the reference", i/2, op, arg, pc)
			}
		}
		// The other levels' stamps and counters only grow, so a
		// difference made by any operation is still there at the end.
		for _, c := range []struct {
			name     string
			got, ref any
		}{{"L1D", got.L1D, ref.L1D}, {"L2", got.L2, ref.L2}, {"L3", got.L3, ref.L3}, {"DTLB", got.DTLB, ref.DTLB}} {
			if !reflect.DeepEqual(c.got, c.ref) {
				t.Fatalf("after %d ops: %s differs from the reference", len(ops)/2, c.name)
			}
		}
	})
}
