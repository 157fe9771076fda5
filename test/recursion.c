/* fact(16) = 2^16 * 16!: the doubled argument [a] is live across the
   recursive call, so an engine that lets a callee overwrite its caller's
   values returns the wrong product. */
int fact(int n) {
  int a = n * 2;
  int r = 1;
  if (n > 1) { r = fact(n - 1); }
  return r * a;
}
