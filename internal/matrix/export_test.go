package matrix

// scalarOnly runs f with the vector kernels switched off, so tests can
// hold the vector path against the scalar reference on the same inputs.
// Tests that call it must not run in parallel.
func scalarOnly(f func()) {
	saved := useVector
	useVector = false
	defer func() { useVector = saved }()
	f()
}
