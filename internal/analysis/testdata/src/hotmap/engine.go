package hotmap

// Hot-path file (engine.go is in the hotmap file set): every map
// allocation must be flagged; there is no exemption directive.

type env struct {
	sentTo map[int]uint64
}

func newEnvs(n int) []*env {
	envs := make([]*env, n) // slice make: fine
	for i := range envs {
		envs[i] = &env{
			sentTo: make(map[int]uint64), // want `map allocation in engine hot-path file engine\.go`
		}
	}
	return envs
}

type gauge map[string]int64

func setup() {
	_ = make(map[string]bool, 8) // want `map allocation in engine hot-path file engine\.go`
	_ = map[int]int{1: 2}        // want `map allocation in engine hot-path file engine\.go`
	_ = make(gauge)              // want `map allocation in engine hot-path file engine\.go`
}

func shadowedMake() {
	make := func(m map[int]int) map[int]int { return m }
	_ = make(nil) // user-defined make: not an allocation of a map by the builtin
}

func slicesAndArrays() {
	_ = make([]int, 10)
	_ = make(chan int)
	_ = []int{1, 2, 3}
}
