// Geographic coordinates and distance, used by PoP placement, hot-potato
// egress selection, and the shortest-ping geolocation technique (Appendix A).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace rrr {

struct GeoPoint {
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;

  friend constexpr auto operator<=>(const GeoPoint&, const GeoPoint&) =
      default;
};

// Great-circle distance in kilometres (haversine).
double distance_km(const GeoPoint& a, const GeoPoint& b);

}  // namespace rrr
