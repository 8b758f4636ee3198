// Fixture: fault-site-documented - a site DESIGN.md does not list.
#define SHALOM_FAULT_SITES(X) \
  X(kBogus, "bogus.site")
