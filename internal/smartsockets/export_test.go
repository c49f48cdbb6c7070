package smartsockets

// HubProcessing lets the external tests' route oracle price a hop.
const HubProcessing = hubProcessing
