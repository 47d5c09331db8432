// Fixture: driver-layer header reaching into the worker directly.
#ifndef FIXTURE_SESSION_H_
#define FIXTURE_SESSION_H_

#include "dist/cluster.h"
#include "dist/worker.h"  // violation: only src/dist/ may

#endif  // FIXTURE_SESSION_H_
