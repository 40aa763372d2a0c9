// Fixture: every class of wall-clock rule hit (linted with --treat_as src).
#include <chrono>
#include <cstdlib>
#include <ctime>

int Bad() {
  int sum = static_cast<int>(std::rand());                        // line 7: rand
  std::srand(42);                                                 // line 8: srand
  sum += static_cast<int>(time(nullptr));                         // line 9: time(
  auto now = std::chrono::system_clock::now();                    // line 10: system_clock
  auto fine = std::chrono::high_resolution_clock::now();          // line 11
  sum += static_cast<int>(now.time_since_epoch().count());
  sum += static_cast<int>(fine.time_since_epoch().count());
  // A justified use stays quiet:
  auto t0 = std::chrono::steady_clock::now();  // lint: wall-clock-ok
  sum += static_cast<int>(t0.time_since_epoch().count());
  // "time" as a plain identifier (no call) is fine:
  int time = 3;
  return sum + time;
}
