//===- akg/Chaos.cpp - Seeded probabilistic fault injection ---------------===//

#include "akg/Chaos.h"

#include <cstdlib>

namespace akg {

namespace {

/// splitmix64: the de-facto standard seeder; one call per draw keeps the
/// decision a pure function of its inputs.
uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t hashName(const std::string &S) {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  return H;
}

/// Uniform draw in [0,1) for stream \p Which of (seed, name, attempt).
double draw(const ChaosSpec &S, const std::string &Name, unsigned Attempt,
            uint64_t Which) {
  uint64_t X = splitmix64(S.Seed ^ splitmix64(hashName(Name)) ^
                          splitmix64((uint64_t(Attempt) << 8) | Which));
  return double(X >> 11) * (1.0 / 9007199254740992.0); // 53-bit mantissa
}

bool parseProb(const std::string &V, double &P, double *Ms, double DefMs) {
  size_t Colon = V.find(':');
  std::string Ptext = V.substr(0, Colon == std::string::npos ? V.size()
                                                             : Colon);
  char *End = nullptr;
  P = std::strtod(Ptext.c_str(), &End);
  if (End == Ptext.c_str() || *End || P < 0 || P > 1)
    return false;
  if (Ms) {
    *Ms = DefMs;
    if (Colon != std::string::npos) {
      std::string Mtext = V.substr(Colon + 1);
      *Ms = std::strtod(Mtext.c_str(), &End);
      if (End == Mtext.c_str() || *End || *Ms < 0)
        return false;
    }
  } else if (Colon != std::string::npos) {
    return false; // duration on a field that takes none
  }
  return true;
}

} // namespace

std::optional<ChaosSpec> ChaosSpec::parse(const std::string &Text,
                                          std::string *Err) {
  ChaosSpec S;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Field = Text.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Field.empty())
      continue;
    size_t Eq = Field.find('=');
    if (Eq == std::string::npos) {
      if (Err)
        *Err = "field '" + Field + "' has no '='";
      return std::nullopt;
    }
    std::string Key = Field.substr(0, Eq), Val = Field.substr(Eq + 1);
    bool Good;
    if (Key == "seed") {
      char *End = nullptr;
      S.Seed = std::strtoull(Val.c_str(), &End, 10);
      Good = End != Val.c_str() && !*End;
    } else if (Key == "fault") {
      Good = parseProb(Val, S.FaultP, nullptr, 0);
    } else if (Key == "transient") {
      Good = parseProb(Val, S.TransientP, nullptr, 0);
    } else if (Key == "delay") {
      Good = parseProb(Val, S.DelayP, &S.DelayMs, 10);
    } else if (Key == "hang") {
      Good = parseProb(Val, S.HangP, &S.HangMs, 60000);
    } else {
      if (Err)
        *Err = "unknown field '" + Key + "'";
      return std::nullopt;
    }
    if (!Good) {
      if (Err)
        *Err = "bad value for '" + Key + "': '" + Val + "'";
      return std::nullopt;
    }
  }
  return S;
}

ChaosAction chaosDecide(const ChaosSpec &S, const std::string &Name,
                        unsigned Attempt) {
  ChaosAction A;
  if (S.HangP > 0 && draw(S, Name, Attempt, 1) < S.HangP) {
    A.K = ChaosAction::Kind::Hang;
    A.Ms = S.HangMs;
    return A;
  }
  if (S.FaultP > 0 && draw(S, Name, Attempt, 2) < S.FaultP) {
    A.K = ChaosAction::Kind::Fault;
    A.Transient = draw(S, Name, Attempt, 3) < S.TransientP;
    return A;
  }
  if (S.DelayP > 0 && draw(S, Name, Attempt, 4) < S.DelayP) {
    A.K = ChaosAction::Kind::Delay;
    A.Ms = S.DelayMs;
    return A;
  }
  return A;
}

} // namespace akg
