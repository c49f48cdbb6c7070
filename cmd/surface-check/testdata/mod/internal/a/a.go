package a

func Used()          {} // by a command
func FromBenchTest() {} // by the root package's bench_test.go
func FromBench()     {} // by the bench module
func Unused()        {} // by a test only

type T struct{}

func (T) String() string { return "" } // through fmt.Stringer
func (*T) M()            {}
