package obs

// CheckEventLine bridges the differential check to the external test package
// (encode_runs_test.go), which has to live outside package obs to import the
// packages that record real runs.
var CheckEventLine = checkLine
