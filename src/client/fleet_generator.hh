/**
 * @file
 * FleetLoadGenerator: another name for client::LoadGenerator, which
 * serves one machine and a fleet alike (see load_generator.hh).
 */

#ifndef REQOBS_CLIENT_FLEET_GENERATOR_HH
#define REQOBS_CLIENT_FLEET_GENERATOR_HH

#include "client/load_generator.hh"

namespace reqobs::client {

using FleetLoadGenerator = LoadGenerator;

} // namespace reqobs::client

#endif // REQOBS_CLIENT_FLEET_GENERATOR_HH
