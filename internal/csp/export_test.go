package csp

// Australia exports the map-colouring fixture to the external tests in
// package csp_test, which solve through the query engine's flow.
var Australia = australia
