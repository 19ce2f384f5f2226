package mpiio

// writeAll is a single collective write through the installed view: a
// batch of one op.
func writeAll(f *File, off int64, data []byte) error {
	return f.WriteAtAllOps([]BatchOp{{Disp: f.disp, Type: f.filetype, Off: off, Data: data}})
}

// readAll is a single collective read through the installed view: a
// batch of one op.
func readAll(f *File, off int64, data []byte) error {
	return f.ReadAtAllOps([]BatchOp{{Disp: f.disp, Type: f.filetype, Off: off, Data: data}})
}
