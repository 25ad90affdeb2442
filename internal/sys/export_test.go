package sys

// Op-table lookups for the tests of package sys_test, which boot whole
// kernels through internal/core (an import package sys cannot make).
var (
	// OpAllocs reports whether num's row is marked opAllocs.
	OpAllocs = func(num uint64) bool { return lookup(num).props&opAllocs != 0 }
	// IsLoggedOp reports whether num is a user-level logged row.
	IsLoggedOp = func(num uint64) bool { return lookup(num).class == classLogged }
)
