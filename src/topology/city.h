// Built-in world city table used for PoP placement and geolocation.
#pragma once

#include <string_view>

#include "netbase/geo.h"
#include "topology/types.h"

namespace rrr::topo {

struct City {
  std::string_view name;
  GeoPoint location;
};

// Name/location of a city id; asserts on out-of-range ids.
const City& city(CityId id);

// Number of cities in the table.
CityId city_count();

// Great-circle distance between two cities in km, bit-identical to
// distance_km of their locations; asserts on out-of-range ids.
double city_distance_km(CityId a, CityId b);

// Id of the named city, or kNoCity.
CityId find_city(std::string_view name);

}  // namespace rrr::topo
