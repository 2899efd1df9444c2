#include "netbase/geo.h"

#include <cmath>

namespace rrr {
namespace {

constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;

}  // namespace

double distance_km(const GeoPoint& a, const GeoPoint& b) {
  double lat1 = a.latitude_deg * kDegToRad;
  double lat2 = b.latitude_deg * kDegToRad;
  double dlat = (b.latitude_deg - a.latitude_deg) * kDegToRad;
  double dlon = (b.longitude_deg - a.longitude_deg) * kDegToRad;
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                 std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace rrr
