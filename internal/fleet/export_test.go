package fleet

// The external test package (fleet_test) exists because internal/load
// imports fleet; it borrows the package's synthetic scenario and race flag.
var TestEnv = testEnv

const RaceEnabled = raceEnabled
