#include "topology/city.h"

#include <array>
#include <cassert>

namespace rrr::topo {
namespace {

// Major interconnection hubs; coordinates are approximate city centers.
constexpr std::array<City, 48> kCities = {{
    {"London", {51.51, -0.13}},
    {"Frankfurt", {50.11, 8.68}},
    {"Amsterdam", {52.37, 4.90}},
    {"Paris", {48.86, 2.35}},
    {"Stockholm", {59.33, 18.07}},
    {"Madrid", {40.42, -3.70}},
    {"Milan", {45.46, 9.19}},
    {"Vienna", {48.21, 16.37}},
    {"Warsaw", {52.23, 21.01}},
    {"Zurich", {47.37, 8.54}},
    {"Dublin", {53.35, -6.26}},
    {"Moscow", {55.76, 37.62}},
    {"Istanbul", {41.01, 28.98}},
    {"New York", {40.71, -74.01}},
    {"Ashburn", {39.04, -77.49}},
    {"Miami", {25.76, -80.19}},
    {"Chicago", {41.88, -87.63}},
    {"Dallas", {32.78, -96.80}},
    {"Denver", {39.74, -104.99}},
    {"Los Angeles", {34.05, -118.24}},
    {"San Jose", {37.34, -121.89}},
    {"Seattle", {47.61, -122.33}},
    {"Toronto", {43.65, -79.38}},
    {"Montreal", {45.50, -73.57}},
    {"Mexico City", {19.43, -99.13}},
    {"Sao Paulo", {-23.55, -46.63}},
    {"Buenos Aires", {-34.60, -58.38}},
    {"Santiago", {-33.45, -70.67}},
    {"Bogota", {4.71, -74.07}},
    {"Tokyo", {35.68, 139.69}},
    {"Osaka", {34.69, 135.50}},
    {"Seoul", {37.57, 126.98}},
    {"Hong Kong", {22.32, 114.17}},
    {"Singapore", {1.35, 103.82}},
    {"Taipei", {25.03, 121.57}},
    {"Mumbai", {19.08, 72.88}},
    {"Chennai", {13.08, 80.27}},
    {"Sydney", {-33.87, 151.21}},
    {"Melbourne", {-37.81, 144.96}},
    {"Auckland", {-36.85, 174.76}},
    {"Johannesburg", {-26.20, 28.05}},
    {"Cape Town", {-33.92, 18.42}},
    {"Nairobi", {-1.29, 36.82}},
    {"Lagos", {6.52, 3.38}},
    {"Cairo", {30.04, 31.24}},
    {"Dubai", {25.20, 55.27}},
    {"Tel Aviv", {32.09, 34.78}},
    {"Jakarta", {-6.21, 106.85}},
}};

}  // namespace

const City& city(CityId id) {
  assert(id < kCities.size());
  return kCities[id];
}

CityId city_count() { return static_cast<CityId>(kCities.size()); }

double city_distance_km(CityId a, CityId b) {
  assert(a < kCities.size() && b < kCities.size());
  // Every pair's distance_km, worked out once: the prober and the egress
  // choice need about nine distances between two cities a traceroute, and
  // a haversine is a chain of libm calls. A function-local static, since
  // worlds are built on several threads at once.
  static const std::array<double, kCities.size() * kCities.size()> table =
      [] {
        std::array<double, kCities.size() * kCities.size()> km{};
        for (std::size_t i = 0; i < kCities.size(); ++i) {
          for (std::size_t j = 0; j < kCities.size(); ++j) {
            km[i * kCities.size() + j] =
                distance_km(kCities[i].location, kCities[j].location);
          }
        }
        return km;
      }();
  return table[a * kCities.size() + b];
}

CityId find_city(std::string_view name) {
  for (CityId i = 0; i < kCities.size(); ++i) {
    if (kCities[i].name == name) return i;
  }
  return kNoCity;
}

}  // namespace rrr::topo
