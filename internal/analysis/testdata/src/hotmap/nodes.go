package hotmap

// nodes.go is a hot-path file too: the protocol's per-round node handlers.

type message struct{ from int32 }

// processDone is DESIGN.md §9's mutation H1: a map sized to the inbox on
// every call. It raises Solve's allocation from 77 to 85 bytes per
// directed edge, under the 90-byte gate, so no test sees it.
func processDone(inbox []message) int {
	at := len(make(map[int32]bool, len(inbox))) // want `map allocation in engine hot-path file nodes\.go`
	for range inbox {
		at++
	}
	return at
}
